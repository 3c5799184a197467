"""Balance reuses a child's greedy fill across the rescans of one walk — exactly.

After a try that placed VMs, ``_scan`` takes a child's option from the
walk's previous scan when the child's key is unchanged and ``want``
shrank by no more than the fill's per-tier slack (see ``_greedy_fill``).
Two suites:

* **the no-reuse reference** — ``_greedy_fill`` patched to report slack
  -1 for every tier, so no shrunk tier is ever within it (a ``None``
  option is still reused: less ``want`` never fits more).  Seeded churns
  over both ledgers, a symmetric and a heterogeneous fabric, the bing
  and svc pools and four placer variants must give the same accept
  bytes, server layouts and ``ledger_fingerprint`` in both worlds, and
  reuse must really happen wherever Balance runs without WCS.
* **the slack property** — ``_greedy_fill`` alone: any shrink within
  the slack gives the same ``(score, fill)``, ``fill``'s key order
  included, and the slack less the shrink.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement.base import Placement
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.placement.ha import HaPolicy
from repro.simulation.runner import make_placer
from repro.simulation.service import ledger_fingerprint
from repro.temporal.admission import TemporalCluster
from repro.temporal.profile import TemporalTag, diurnal_profile
from repro.topology.builder import heterogeneous_from_spec, three_level_tree
from repro.topology.ledger import Ledger
from repro.workloads.patterns import three_tier
from repro.workloads.scaling import scale_pool
from tests.placement.test_search_layouts import (
    SPEC,
    WINDOWS,
    _churn,
    small_bing_pool,
)

PLACERS = {
    "cm": ("cm", None),
    "cm-coloc-only": ("cm-coloc-only", None),
    "cm-balance-only": ("cm-balance-only", None),
    "cm-wcs": ("cm", HaPolicy(required_wcs=0.5)),
}
FABRICS = {"symmetric": three_level_tree, "heterogeneous": heterogeneous_from_spec}
ARRIVALS = 70


def svc_pool():
    """The bench's 5-8-VM three-tier services, scaled until bandwidth binds."""
    tenants = [
        three_tier(f"svc-{i}", (2 + i % 3, 2, 1 + i % 2), b1=20.0, b2=10.0, b3=5.0)
        for i in range(24)
    ]
    return scale_pool(tenants, 600.0)


POOLS = {"bing": small_bing_pool, "svc": svc_pool}


def _run(ledger_kind, fabric, pool_name, placer_key):
    """One seeded churn: decisions, layouts, end fingerprint, greedy calls."""
    topology = FABRICS[fabric](SPEC)
    pool = POOLS[pool_name]()
    placer_name, ha = PLACERS[placer_key]
    if ledger_kind == "temporal":
        cluster = TemporalCluster(None, WINDOWS, topology=topology)
        cluster.placer = make_placer(placer_name, cluster.ledger, ha)
        tenants = [
            TemporalTag(tag, diurnal_profile(WINDOWS, peak_window=i % WINDOWS))
            for i, tag in enumerate(pool)
        ]

        def admit(index):
            admission = cluster.admit(tenants[index])
            if admission is None:
                return None, None
            return admission, admission.allocation

        depart, ledger, placer = cluster.depart, cluster.ledger, cluster.placer
    else:
        ledger = Ledger(topology)
        placer = make_placer(placer_name, ledger, ha)

        def admit(index):
            result = placer.place(pool[index])
            if isinstance(result, Placement):
                return result.allocation, result.allocation
            return None, None

        def depart(allocation):
            allocation.release()

    calls = [0]
    fill = placer._greedy_fill

    def counted(*args):
        calls[0] += 1
        return fill(*args)

    placer._greedy_fill = counted
    record = _churn(topology, pool, admit, depart, arrivals=ARRIVALS)
    record["fingerprint"] = ledger_fingerprint(ledger)
    return record, calls[0]


def _no_slack(monkeypatch):
    """The reference world: every greedy fill claims slack -1 per tier."""
    real = CloudMirrorPlacer._greedy_fill

    def greedy_fill(self, allocation, want, *row):
        option = real(self, allocation, want, *row)
        if option is None:
            return None
        return option[0], option[1], dict.fromkeys(want, -1)

    monkeypatch.setattr(CloudMirrorPlacer, "_greedy_fill", greedy_fill)


@pytest.mark.parametrize("placer_key", PLACERS)
@pytest.mark.parametrize("pool_name", POOLS)
@pytest.mark.parametrize("fabric", FABRICS)
@pytest.mark.parametrize("ledger_kind", ("classic", "temporal"))
def test_reuse_changes_nothing(ledger_kind, fabric, pool_name, placer_key, monkeypatch):
    result, calls = _run(ledger_kind, fabric, pool_name, placer_key)
    with monkeypatch.context() as patched:
        _no_slack(patched)
        reference, reference_calls = _run(ledger_kind, fabric, pool_name, placer_key)
    assert result["decisions"] == reference["decisions"]
    assert result["layouts"] == reference["layouts"]
    assert result["fingerprint"] == reference["fingerprint"]
    # Both sides of admission control, or the churn pins nothing.
    assert "0" in result["decisions"] and "1" in result["decisions"]
    if placer_key == "cm-coloc-only":
        assert calls == reference_calls == 0  # no Balance, no greedy fill
    elif placer_key == "cm-wcs":
        assert calls == reference_calls > 0  # reuse is off under WCS
    else:
        assert 0 < calls < reference_calls


# ----------------------------------------------------------------------
# the slack property of one greedy fill
# ----------------------------------------------------------------------
RATES = st.one_of(st.just(0.0), st.floats(0.01, 400.0), st.integers(0, 400).map(float))
AVAILABILITY = st.one_of(
    st.just(float("inf")), st.floats(-50.0, 3000.0), st.integers(0, 3000).map(float)
)


@st.composite
def greedy_cases(draw):
    tiers = [f"t{i}" for i in range(draw(st.integers(1, 4)))]
    want = {tier: draw(st.integers(1, 16)) for tier in tiers}
    # Non-WCS Eq. 7 headroom is the plan's size table; any headroom, even
    # below ``want``, exercises the cap bound.
    caps = {tier: draw(st.integers(0, 20)) for tier in tiers}
    demand = {tier: (draw(RATES), draw(RATES)) for tier in tiers}
    if draw(st.booleans()):
        up = down = None  # the relaxed pass
    else:
        up, down = draw(AVAILABILITY), draw(AVAILABILITY)
    return want, caps, demand, draw(st.integers(0, 40)), up, down


def _greedy(placer, want, free, up, down):
    return placer._greedy_fill(None, want, 0, free, {}, up, down)


@settings(max_examples=300, deadline=None)
@given(case=greedy_cases(), data=st.data())
def test_a_shrink_within_the_slack_keeps_the_fill(case, data):
    want, caps, demand, free, up, down = case
    placer = CloudMirrorPlacer(Ledger(three_level_tree(SPEC)))
    placer._plan = SimpleNamespace(demand=demand, size=caps)
    option = _greedy(placer, want, free, up, down)
    delta = {}
    for tier, left in want.items():
        # A tier with no slack entry never had room: any shrink, to zero.
        limit = option[2].get(tier, left) if option is not None else left
        delta[tier] = data.draw(st.integers(0, max(0, limit)), label=tier)
    shrunk = {tier: n - delta[tier] for tier, n in want.items() if n > delta[tier]}
    again = _greedy(placer, shrunk, free, up, down) if shrunk else None
    if option is None:
        assert again is None  # less want never fits more
        return
    score, fill, slack = option
    assert again is not None
    assert again[0].hex() == score.hex()
    assert list(again[1].items()) == list(fill.items())
    assert again[2] == {tier: gap - delta[tier] for tier, gap in slack.items()}
