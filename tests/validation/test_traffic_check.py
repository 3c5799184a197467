"""Randomized end-to-end proof: reservations cover admissible traffic."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tag import Tag
from repro.errors import SimulationError
from repro.placement.base import Placement
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.placement.oktopus import OktopusPlacer
from repro.topology.ledger import Ledger
from repro.validation.traffic_check import (
    VmIndex,
    link_loads,
    sample_admissible_matrix,
    validate_allocation,
)
from repro.workloads.bing import bing_pool
from repro.workloads.scaling import scale_pool
from tests.tags import hose_tag


def place(small_datacenter, tag, placer_cls=CloudMirrorPlacer):
    ledger = Ledger(small_datacenter)
    result = placer_cls(ledger).place(tag)
    assert isinstance(result, Placement)
    return result.allocation


class TestVmIndex:
    def test_covers_all_vms(self, small_datacenter, three_tier_tag):
        allocation = place(small_datacenter, three_tier_tag)
        index = VmIndex.from_allocation(allocation)
        assert index.count == 12
        assert sorted(set(index.tiers)) == ["db", "logic", "web"]


class TestAdmissibleMatrix:
    def test_respects_send_caps(self, small_datacenter, three_tier_tag):
        allocation = place(small_datacenter, three_tier_tag)
        index = VmIndex.from_allocation(allocation)
        rng = np.random.default_rng(0)
        matrix = sample_admissible_matrix(three_tier_tag, index, rng)
        members = {
            tier: [i for i, t in enumerate(index.tiers) if t == tier]
            for tier in ("web", "logic", "db")
        }
        # Each web VM sends at most B1=500 toward logic.
        for vm in members["web"]:
            total = matrix[vm, members["logic"]].sum()
            assert total <= 500.0 + 1e-9

    def test_respects_receive_caps(self, small_datacenter, three_tier_tag):
        allocation = place(small_datacenter, three_tier_tag)
        index = VmIndex.from_allocation(allocation)
        rng = np.random.default_rng(1)
        matrix = sample_admissible_matrix(three_tier_tag, index, rng)
        members = {
            tier: [i for i, t in enumerate(index.tiers) if t == tier]
            for tier in ("web", "logic", "db")
        }
        for vm in members["logic"]:
            from_web = matrix[members["web"], vm].sum()
            assert from_web <= 500.0 + 1e-9

    def test_intensity_validation(self, small_datacenter, three_tier_tag):
        allocation = place(small_datacenter, three_tier_tag)
        index = VmIndex.from_allocation(allocation)
        with pytest.raises(SimulationError):
            sample_admissible_matrix(
                three_tier_tag, index, np.random.default_rng(0), intensity=2.0
            )

    def test_no_self_traffic(self, small_datacenter):
        tag = hose_tag("h", size=8, bandwidth=100.0)
        allocation = place(small_datacenter, tag)
        index = VmIndex.from_allocation(allocation)
        matrix = sample_admissible_matrix(tag, index, np.random.default_rng(2))
        assert np.all(np.diag(matrix) == 0.0)


class TestLinkLoads:
    def test_colocated_traffic_is_free(self, small_datacenter):
        tag = Tag("tiny")
        tag.add_component("a", 2)
        tag.add_self_loop("a", 10.0)
        allocation = place(small_datacenter, tag)
        index = VmIndex.from_allocation(allocation)
        if len(set(s.node_id for s in index.servers)) == 1:
            matrix = np.full((2, 2), 5.0)
            np.fill_diagonal(matrix, 0.0)
            assert link_loads(index, matrix) == {}


class TestValidateAllocation:
    def test_three_tier_cm(self, small_datacenter, three_tier_tag):
        allocation = place(small_datacenter, three_tier_tag)
        validate_allocation(allocation, samples=8, seed=0)

    def test_storm_cm(self, small_datacenter, storm_tag):
        allocation = place(small_datacenter, storm_tag)
        validate_allocation(allocation, samples=8, seed=1)

    def test_oktopus_voc_reservations_also_cover(
        self, small_datacenter, three_tier_tag
    ):
        # VOC over-reserves relative to TAG, so admissible traffic fits.
        allocation = place(
            small_datacenter, three_tier_tag.scaled(0.2), OktopusPlacer
        )
        validate_allocation(allocation, samples=5, seed=2)

    def test_bing_sample_end_to_end(self, small_datacenter):
        pool = [
            t
            for t in scale_pool(bing_pool(), 300.0)
            if 4 <= t.size <= 30 and t.num_tiers >= 2
        ][:6]
        ledger = Ledger(small_datacenter)
        placer = CloudMirrorPlacer(ledger)
        validated = 0
        for tag in pool:
            result = placer.place(tag)
            if isinstance(result, Placement):
                validate_allocation(result.allocation, samples=4, seed=3)
                validated += 1
        assert validated >= 3

    def test_validation_after_scale_up(self, small_datacenter):
        tag = Tag("svc")
        tag.add_component("web", 8)
        tag.add_component("db", 4)
        tag.add_edge("web", "db", 40.0, 80.0)
        ledger = Ledger(small_datacenter)
        placer = CloudMirrorPlacer(ledger)
        result = placer.place(tag)
        assert isinstance(result, Placement)
        assert placer.scale_up(result.allocation, "web", 6)
        validate_allocation(result.allocation, samples=5, seed=4)
