"""Tests for ElasticSwitch-style enforcement and the paper scenarios."""

from __future__ import annotations

import pytest

from repro.core.tag import Tag
from repro.enforcement.elasticswitch import PairFlow, enforce
from repro.enforcement.scenarios import fig4_scenario, fig13_scenario
from repro.errors import EnforcementError


def _two_tier_tag(guarantee: float = 450.0) -> Tag:
    tag = Tag("t")
    tag.add_component("C1", size=1)
    tag.add_component("C2", size=3)
    tag.add_edge("C1", "C2", send=guarantee, recv=guarantee)
    tag.add_self_loop("C2", guarantee)
    return tag


class TestEnforce:
    def test_guarantee_met_under_contention(self):
        tag = _two_tier_tag()
        flows = [
            PairFlow("C1", 0, "C2", 0, links=("bn",)),
            PairFlow("C2", 1, "C2", 0, links=("bn",)),
            PairFlow("C2", 2, "C2", 0, links=("bn",)),
        ]
        result = enforce(tag, flows, {"bn": 1000.0}, mode="tag")
        assert result.rates[0] >= 450.0 - 1e-6

    def test_work_conserving(self):
        tag = _two_tier_tag()
        flows = [PairFlow("C1", 0, "C2", 0, links=("bn",))]
        result = enforce(tag, flows, {"bn": 1000.0}, mode="tag")
        # A single unconstrained flow takes the whole bottleneck.
        assert result.rates[0] == pytest.approx(1000.0)

    def test_finite_demand_respected(self):
        tag = _two_tier_tag()
        flows = [PairFlow("C1", 0, "C2", 0, links=("bn",), demand=100.0)]
        result = enforce(tag, flows, {"bn": 1000.0}, mode="tag")
        assert result.rates[0] == pytest.approx(100.0)

    def test_guarantees_never_exceed_rates(self):
        tag = _two_tier_tag()
        flows = [
            PairFlow("C1", 0, "C2", 0, links=("bn",)),
            PairFlow("C2", 1, "C2", 0, links=("bn",)),
        ]
        result = enforce(tag, flows, {"bn": 1000.0}, mode="tag")
        for guarantee, rate in zip(result.guarantees, result.rates):
            assert rate >= guarantee - 1e-6

    def test_unknown_flow_rejected(self):
        tag = _two_tier_tag()
        flows = [PairFlow("C2", 0, "C1", 0, links=("bn",))]  # no C2->C1 edge
        with pytest.raises(EnforcementError):
            enforce(tag, flows, {"bn": 1000.0})

    def test_mode_validation(self):
        tag = _two_tier_tag()
        with pytest.raises(EnforcementError):
            enforce(tag, [], {}, mode="pipe")
        with pytest.raises(EnforcementError):
            enforce(tag, [], {}, headroom=1.0)


class TestFig13:
    def test_tag_mode_protects_trunk(self):
        for senders in range(6):
            point = fig13_scenario(senders, mode="tag")
            assert point.x_to_z >= 450.0 - 1e-6

    def test_hose_mode_degrades(self):
        degraded = fig13_scenario(4, mode="hose")
        assert degraded.x_to_z < 450.0
        # The hose-mode envelope: 900/(k+1) plus the spare 100 share.
        assert degraded.x_to_z == pytest.approx(900.0 / 5 + 100.0 / 5)

    def test_bottleneck_fully_used(self):
        point = fig13_scenario(3, mode="tag")
        assert point.x_to_z + point.c2_to_z == pytest.approx(1000.0)

    def test_monotone_c2_share(self):
        shares = [fig13_scenario(k, mode="tag").c2_to_z for k in range(1, 6)]
        assert shares == sorted(shares)


class TestFig4:
    def test_tag_meets_web_guarantee(self):
        outcome = fig4_scenario(mode="tag")
        assert outcome.web_guarantee_met
        assert outcome.web_to_logic == pytest.approx(500.0)
        assert outcome.db_to_logic == pytest.approx(100.0)

    def test_hose_fails_web_guarantee(self):
        outcome = fig4_scenario(mode="hose")
        assert not outcome.web_guarantee_met
        assert outcome.web_to_logic < 500.0

    def test_total_never_exceeds_bottleneck(self):
        for mode in ("tag", "hose"):
            outcome = fig4_scenario(mode=mode)
            assert outcome.web_to_logic + outcome.db_to_logic <= 600.0 + 1e-6
