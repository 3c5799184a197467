"""Tests for the generalized hose baseline (paper §2.2)."""

from __future__ import annotations

import pytest

from repro.core.bandwidth import BandwidthDemand
from repro.errors import ModelError
from repro.models.hose import (
    HoseModel,
    hose_from_tag,
    hose_uplink_requirement,
)


class TestHoseFromTag:
    def test_fig2b_aggregation(self, three_tier_tag):
        """Fig. 2(b): the DB hose must be B2+B3, the logic hose B1+B2."""
        model = hose_from_tag(three_tier_tag)
        assert model.guarantees["db"] == BandwidthDemand(150.0, 150.0)
        assert model.guarantees["logic"] == BandwidthDemand(600.0, 600.0)
        assert model.guarantees["web"] == BandwidthDemand(500.0, 500.0)
        assert sum(model.sizes.values()) == 12

    def test_mismatched_model_rejected(self):
        with pytest.raises(ModelError):
            HoseModel(sizes={"a": 1}, guarantees={})


class TestHoseRequirement:
    def test_homogeneous_vc_formula(self):
        model = HoseModel(
            sizes={"all": 10},
            guarantees={"all": BandwidthDemand(100.0, 100.0)},
        )
        # min(k, N-k) * B for the classic VC.
        demand = hose_uplink_requirement(model, {"all": 3})
        assert demand.out == pytest.approx(300.0)
        assert demand.into == pytest.approx(300.0)
        demand = hose_uplink_requirement(model, {"all": 8})
        assert demand.out == pytest.approx(200.0)

    def test_hose_wastes_on_l3(self, three_tier_tag):
        """§2.2: on the L3 link the hose model reserves B2+B3 per DB VM
        (600 total) where TAG needs only 400."""
        model = hose_from_tag(three_tier_tag)
        demand = hose_uplink_requirement(model, {"db": 4})
        assert demand.out == pytest.approx(600.0)

    def test_out_of_range_counts(self):
        model = HoseModel(
            sizes={"a": 2}, guarantees={"a": BandwidthDemand(1.0, 1.0)}
        )
        with pytest.raises(ValueError):
            hose_uplink_requirement(model, {"a": 3})
