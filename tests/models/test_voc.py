"""Tests for the generalized VOC baseline and footnote-7 math."""

from __future__ import annotations

import pytest

from repro.core.bandwidth import uplink_requirement
from repro.errors import ModelError
from repro.models.voc import VocCluster, voc_from_tag, voc_uplink_requirement


def _cluster(model, name):
    (cluster,) = (c for c in model.clusters if c.name == name)
    return cluster


class TestVocCluster:
    def test_validation(self):
        with pytest.raises(ModelError):
            VocCluster("c", 0, 1.0, 1.0, 1.0)
        with pytest.raises(ModelError):
            VocCluster("c", 1, -1.0, 1.0, 1.0)


class TestVocFromTag:
    def test_storm_mapping(self, storm_tag):
        """Fig. 3(b): spout1's core hose is 2B (it feeds two bolts); no
        intra-cluster hose anywhere."""
        model = voc_from_tag(storm_tag)
        spout = _cluster(model, "spout1")
        assert spout.hose_bw == 0.0
        assert spout.core_out == pytest.approx(20.0)
        assert spout.core_in == 0.0
        bolt2 = _cluster(model, "bolt2")
        assert bolt2.core_in == pytest.approx(10.0)
        assert bolt2.core_out == pytest.approx(10.0)

    def test_three_tier_mapping(self, three_tier_tag):
        model = voc_from_tag(three_tier_tag)
        db = _cluster(model, "db")
        assert db.hose_bw == pytest.approx(50.0)
        assert db.core_out == pytest.approx(100.0)


class TestVocRequirement:
    def test_fig3c_voc_overreserves(self, storm_tag):
        """§2.2: for the Fig. 3(c) split VOC reserves 2*S*B = 60 where the
        actual pattern needs only S*B = 30."""
        inside = {"spout1": 3, "bolt1": 3}
        voc = voc_uplink_requirement(storm_tag, inside)
        tag = uplink_requirement(storm_tag, inside)
        assert tag.out == pytest.approx(30.0)
        assert voc.out == pytest.approx(60.0)

    def test_voc_upper_bounds_tag(self, three_tier_tag):
        for inside in (
            {"db": 4},
            {"web": 2, "logic": 3},
            {"web": 4, "logic": 4, "db": 2},
        ):
            voc = voc_uplink_requirement(three_tier_tag, inside)
            tag = uplink_requirement(three_tier_tag, inside)
            assert tag.out <= voc.out + 1e-9
            assert tag.into <= voc.into + 1e-9

    def test_voc_includes_hose_term(self, three_tier_tag):
        demand = voc_uplink_requirement(three_tier_tag, {"db": 2})
        # trunk: min(2*100 sends, outside receives) + hose min(2,2)*50.
        assert demand.out == pytest.approx(200.0 + 100.0)

    def test_unsized_external(self):
        from repro.core.tag import Tag

        tag = Tag()
        tag.add_component("web", 4)
        tag.add_component("internet", external=True)
        tag.add_edge("web", "internet", 10.0, 25.0)
        demand = voc_uplink_requirement(tag, {"web": 2})
        assert demand.out == pytest.approx(20.0)
