"""Property-based tests of the core bandwidth mathematics (hypothesis).

The key invariants the paper proves or relies on:

* Eq. 1 is between 0 and the additive per-VM worst case,
* TAG <= VOC on every link (footnote 7's proof),
* the requirement with everything inside equals the external demand only,
* hose crossing is symmetric and peaks at the half-split (Eq. 2),
* scaling the TAG scales every requirement linearly.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bandwidth import hose_requirement, uplink_requirement
from repro.core.tag import Tag
from repro.models.hose import hose_from_tag, hose_uplink_requirement
from repro.models.voc import voc_uplink_requirement
from tests.tags import hose_tag

MAX_TIERS = 4
MAX_SIZE = 8


@st.composite
def tags(draw) -> Tag:
    """Random small TAGs with arbitrary edges and self-loops."""
    num_tiers = draw(st.integers(1, MAX_TIERS))
    tag = Tag("random")
    names = [f"t{i}" for i in range(num_tiers)]
    for name in names:
        tag.add_component(name, draw(st.integers(1, MAX_SIZE)))
    bandwidth = st.floats(0.0, 1000.0, allow_nan=False, allow_infinity=False)
    for i, src in enumerate(names):
        if draw(st.booleans()):
            tag.add_self_loop(src, draw(bandwidth))
        for dst in names[i + 1 :]:
            if draw(st.booleans()):
                tag.add_edge(src, dst, draw(bandwidth), draw(bandwidth))
            if draw(st.booleans()):
                tag.add_edge(dst, src, draw(bandwidth), draw(bandwidth))
    return tag


@st.composite
def tags_with_split(draw):
    tag = draw(tags())
    inside = {}
    for component in tag.internal_components():
        count = draw(st.integers(0, component.size))
        if count:
            inside[component.name] = count
    return tag, inside


@given(tags_with_split())
@settings(max_examples=200, deadline=None)
def test_requirement_nonnegative_and_bounded(case):
    """0 <= Eq.1 <= sum of per-VM worst cases of the VMs inside."""
    tag, inside = case
    demand = uplink_requirement(tag, inside)
    assert demand.out >= 0.0
    assert demand.into >= 0.0
    bound_out = sum(
        tag.per_vm_demand(t)[0] * n for t, n in inside.items()
    )
    bound_in = sum(tag.per_vm_demand(t)[1] * n for t, n in inside.items())
    assert demand.out <= bound_out + 1e-6
    assert demand.into <= bound_in + 1e-6


@given(tags_with_split())
@settings(max_examples=200, deadline=None)
def test_tag_never_exceeds_voc(case):
    """Footnote 7: the TAG requirement <= the VOC requirement, per link."""
    tag, inside = case
    tag_demand = uplink_requirement(tag, inside)
    voc_demand = voc_uplink_requirement(tag, inside)
    assert tag_demand.out <= voc_demand.out + 1e-6
    assert tag_demand.into <= voc_demand.into + 1e-6


@given(tags_with_split())
@settings(max_examples=200, deadline=None)
def test_voc_never_exceeds_hose(case):
    """The single-hose abstraction aggregates even more than VOC."""
    tag, inside = case
    voc_demand = voc_uplink_requirement(tag, inside)
    hose_model = hose_from_tag(tag)
    hose_demand = hose_uplink_requirement(hose_model, inside)
    assert voc_demand.out <= hose_demand.out + 1e-6
    assert voc_demand.into <= hose_demand.into + 1e-6


@given(tags())
@settings(max_examples=100, deadline=None)
def test_everything_inside_needs_nothing(tag):
    """With no external components, a subtree holding all VMs crosses 0."""
    inside = {c.name: c.size for c in tag.internal_components()}
    demand = uplink_requirement(tag, inside)
    assert demand.out == 0.0
    assert demand.into == 0.0


@given(st.integers(2, 20), st.floats(1.0, 100.0), st.data())
@settings(max_examples=100, deadline=None)
def test_hose_crossing_symmetric_and_peaks_at_half(size, bandwidth, data):
    tag = hose_tag("h", size=size, bandwidth=bandwidth)
    counts = [
        hose_requirement(tag, {"all": k}).out for k in range(size + 1)
    ]
    # Symmetric in k <-> size-k.
    for k in range(size + 1):
        assert math.isclose(counts[k], counts[size - k], rel_tol=1e-9)
    # Peak at the half split, zero at the ends.
    assert counts[0] == 0.0
    assert counts[size] == 0.0
    peak = max(counts)
    assert math.isclose(counts[size // 2], peak, rel_tol=1e-9)
    k = data.draw(st.integers(0, size), label="k")
    demand = hose_requirement(tag, {"all": k})
    assert demand.out == demand.into


@given(tags_with_split(), st.floats(0.0, 10.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_requirement_scales_linearly(case, factor):
    tag, inside = case
    base = uplink_requirement(tag, inside)
    scaled = uplink_requirement(tag.scaled(factor), inside)
    assert math.isclose(scaled.out, base.out * factor, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(scaled.into, base.into * factor, rel_tol=1e-9, abs_tol=1e-9)


@given(tags_with_split())
@settings(max_examples=100, deadline=None)
def test_monotone_in_guarantees(case):
    """Raising every guarantee cannot lower any link requirement."""
    tag, inside = case
    base = uplink_requirement(tag, inside)
    bigger = uplink_requirement(tag.scaled(1.5), inside)
    assert bigger.out >= base.out - 1e-9
    assert bigger.into >= base.into - 1e-9
