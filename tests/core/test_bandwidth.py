"""Tests for Eq. 1 and the colocation-saving conditions (paper §4.1-4.2).

Includes the paper's own worked examples: the L3 link of Fig. 2(c), the
Storm deployment of Fig. 3(c), and the footnote-4/7 inequalities.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bandwidth import (
    BandwidthDemand,
    achieved_wcs,
    hose_requirement,
    hose_saving_possible,
    trunk_saving,
    trunk_saving_possible,
    uplink_requirement,
    wcs_cap,
)
from repro.core.tag import Tag, TagEdge
from repro.workloads.patterns import three_tier


class TestUplinkRequirement:
    def test_empty_subtree_needs_nothing(self, three_tier_tag):
        demand = uplink_requirement(three_tier_tag, {})
        assert demand == BandwidthDemand(0.0, 0.0)

    def test_whole_tenant_inside_needs_nothing(self, three_tier_tag):
        demand = uplink_requirement(
            three_tier_tag, {"web": 4, "logic": 4, "db": 4}
        )
        assert demand == BandwidthDemand(0.0, 0.0)

    def test_fig2c_l3_link(self, three_tier_tag):
        """The DB tier alone in a subtree (link L3 of Fig. 2(c)).

        TAG needs only the logic<->db trunk: min(4*100, 4*100) = 400 each
        way — no hose crossing because the whole tier is inside.  The hose
        model would have needed B2+B3 per VM (§2.2).
        """
        demand = uplink_requirement(three_tier_tag, {"db": 4})
        assert demand.out == pytest.approx(400.0)
        assert demand.into == pytest.approx(400.0)

    def test_half_hose_crossing(self, three_tier_tag):
        demand = hose_requirement(three_tier_tag, {"db": 2})
        # min(2, 2) * 50 both ways.
        assert demand.out == pytest.approx(100.0)
        assert demand.into == pytest.approx(100.0)

    def test_fig3c_storm_deployment(self, storm_tag):
        """Fig. 3(c): {spout1, bolt1} in one branch, {bolt2, bolt3} in the
        other.  Only spout1 -> bolt2 crosses: S*B = 3*10 = 30 outgoing.
        VOC would reserve 2*S*B (§2.2)."""
        demand = uplink_requirement(storm_tag, {"spout1": 3, "bolt1": 3})
        assert demand.out == pytest.approx(30.0)
        assert demand.into == pytest.approx(0.0)

    def test_asymmetric_send_receive(self):
        tag = Tag()
        tag.add_component("a", 10)
        tag.add_component("b", 2)
        tag.add_edge("a", "b", send=10.0, recv=100.0)
        # 3 a-VMs inside, both b-VMs outside: min(3*10, 2*100) = 30 out.
        demand = uplink_requirement(tag, {"a": 3})
        assert demand.out == pytest.approx(30.0)
        assert demand.into == pytest.approx(0.0)
        # b inside: receives min(10*10, 2*100) = 100.
        demand = uplink_requirement(tag, {"b": 2})
        assert demand.into == pytest.approx(100.0)

    def test_unsized_external_component(self):
        tag = Tag()
        tag.add_component("web", 4)
        tag.add_component("internet", external=True)
        tag.add_edge("internet", "web", send=5.0, recv=20.0)
        demand = uplink_requirement(tag, {"web": 2})
        # Unsized external cannot cap the min: 2 web VMs receive 2*20.
        assert demand.into == pytest.approx(40.0)
        assert demand.out == pytest.approx(0.0)

    def test_count_out_of_range_raises(self, three_tier_tag):
        with pytest.raises(ValueError):
            uplink_requirement(three_tier_tag, {"db": 5})
        with pytest.raises(ValueError):
            uplink_requirement(three_tier_tag, {"db": -1})

    def test_trunk_plus_hose_decomposition(self, three_tier_tag):
        # B_trunk is what Eq. 1 reserves once the self-loop is gone.
        inside = {"web": 2, "logic": 1, "db": 3}
        total = uplink_requirement(three_tier_tag, inside)
        hose = hose_requirement(three_tier_tag, inside)
        trunk = uplink_requirement(three_tier("t", (4, 4, 4), 500.0, 100.0, 0.0), inside)
        assert total.out == pytest.approx(trunk.out + hose.out)
        assert total.into == pytest.approx(trunk.into + hose.into)


class TestSavingConditions:
    def test_eq2_hose_saving_threshold(self):
        # Strictly more than half.
        assert not hose_saving_possible(5, 10)
        assert hose_saving_possible(6, 10)
        assert hose_saving_possible(2, 3)

    def test_eq4_trunk_saving_amount(self):
        edge = TagEdge("a", "b", 10.0, 10.0)
        # Nothing colocated: no saving.
        assert trunk_saving(edge, 0, 0, 4, 4) == 0.0
        # Everything colocated: full saving 4*10.
        assert trunk_saving(edge, 4, 4, 4, 4) == pytest.approx(40.0)
        # Partial: max(2*10 - (4-3)*10, 0) = 10.
        assert trunk_saving(edge, 2, 3, 4, 4) == pytest.approx(10.0)

    def test_eq4_rejects_self_loop(self):
        edge = TagEdge("a", "a", 10.0, 10.0)
        with pytest.raises(ValueError):
            trunk_saving(edge, 1, 1, 4, 4)

    def test_eq6_necessary_condition(self):
        assert not trunk_saving_possible(2, 2, 4, 4)
        assert trunk_saving_possible(3, 0, 4, 4)
        assert trunk_saving_possible(0, 3, 4, 4)

    def test_eq6_is_necessary_for_eq4(self):
        """Whenever Eq. 4 reports positive saving, Eq. 6 must hold
        (under the balanced-rate assumption N_t*S == N_t'*R)."""
        edge = TagEdge("a", "b", 10.0, 10.0)
        n = 6
        for src_in in range(n + 1):
            for dst_in in range(n + 1):
                saving = trunk_saving(edge, src_in, dst_in, n, n)
                if saving > 0:
                    assert trunk_saving_possible(src_in, dst_in, n, n)


# Finite rates >= 0, zeros included: what ``TagEdge`` admits.
RATES = st.one_of(st.just(0.0), st.floats(0.0, 1e9), st.integers(0, 10**6).map(float))


@st.composite
def trunk_cases(draw):
    src_size = draw(st.integers(1, 200))
    dst_size = draw(st.integers(1, 200))
    return (
        draw(st.integers(0, src_size)),
        draw(st.integers(0, dst_size)),
        src_size,
        dst_size,
        draw(RATES),
        draw(RATES),
    )


@given(trunk_cases())
def test_inline_eq4_is_trunk_saving_bit_for_bit(case):
    """CloudMirror's Colocate evaluates Eq. 4 inline, without the call's
    checks; over in-range counts it must be ``trunk_saving`` exactly."""
    src_in, dst_in, src_size, dst_size, send, recv = case
    x = src_in * send - (dst_size - dst_in) * recv
    inline = 0.0 if x < 0.0 else x
    edge = TagEdge("a", "b", send, recv)
    assert inline.hex() == trunk_saving(edge, src_in, dst_in, src_size, dst_size).hex()


@given(st.one_of(st.just(-0.0), st.just(0.0), st.floats(allow_nan=False)))
def test_inline_clamp_is_max_bit_for_bit(x):
    # ``.hex()`` tells -0.0 from 0.0: max(-0.0, 0.0) keeps its first argument.
    assert (0.0 if x < 0.0 else x).hex() == max(x, 0.0).hex()


class TestWcs:
    def test_eq7_cap(self):
        assert wcs_cap(10, 0.0) == 10
        assert wcs_cap(10, 0.5) == 5
        assert wcs_cap(10, 0.75) == 2
        assert wcs_cap(10, 0.99) == 1
        assert wcs_cap(1, 0.5) == 1  # the max(1, .) floor

    def test_eq7_range_validation(self):
        with pytest.raises(ValueError):
            wcs_cap(10, 1.0)
        with pytest.raises(ValueError):
            wcs_cap(10, -0.1)

    def test_achieved_wcs(self):
        assert achieved_wcs({1: 5, 2: 5}, 10) == pytest.approx(0.5)
        assert achieved_wcs({1: 10}, 10) == 0.0
        assert achieved_wcs({1: 1, 2: 1, 3: 1, 4: 1}, 4) == pytest.approx(0.75)

    def test_achieved_wcs_validates_counts(self):
        with pytest.raises(ValueError):
            achieved_wcs({1: 3}, 10)
        with pytest.raises(ValueError):
            achieved_wcs({}, 0)
