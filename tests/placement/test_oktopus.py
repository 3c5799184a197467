"""Tests for the improved Oktopus (VOC) placer."""

from __future__ import annotations

import pytest

from repro.core.tag import Tag
from repro.models.voc import voc_uplink_requirement
from repro.placement.base import Placement, Rejection
from repro.placement.ha import HaPolicy, allocation_wcs
from repro.placement.oktopus import OktopusPlacer
from repro.topology.ledger import Ledger
from tests.fabrics import single_rack


class TestOktopusPlacement:
    def test_places_three_tier(self, small_ledger, three_tier_tag):
        # Scaled to fit VOC's aggregated requirements on 1 Gbps NICs.
        tag = three_tier_tag.scaled(0.2)
        placer = OktopusPlacer(small_ledger)
        result = placer.place(tag)
        assert isinstance(result, Placement)
        assert result.allocation.is_complete
        assert not small_ledger.has_overcommit()

    def test_full_demand_three_tier_rejected_under_voc(
        self, small_ledger, three_tier_tag
    ):
        """The paper's point, inverted: the very tenant CM+TAG places on
        this datacenter cannot be placed under the VOC abstraction —
        aggregation makes its requirements exceed the 1 Gbps NICs."""
        from repro.placement.cloudmirror import CloudMirrorPlacer

        assert isinstance(
            OktopusPlacer(small_ledger).place(three_tier_tag), Rejection
        )
        assert isinstance(
            CloudMirrorPlacer(small_ledger).place(three_tier_tag), Placement
        )

    def test_uses_voc_requirement(self, small_ledger, three_tier_tag):
        tag = three_tier_tag.scaled(0.2)
        placer = OktopusPlacer(small_ledger)
        result = placer.place(tag)
        assert isinstance(result, Placement)
        allocation = result.allocation
        for node_id, counts in allocation.iter_node_counts():
            if node_id == allocation.ledger.flat.root_id:
                continue
            expected = voc_uplink_requirement(tag, counts)
            assert allocation.reserved_on(node_id).out == pytest.approx(expected.out)

    def test_reserves_more_than_cloudmirror(self, small_datacenter, storm_tag):
        """On the same tenant the VOC abstraction reserves at least as
        much aggregate uplink bandwidth as CM+TAG (usually strictly more
        when components split, §2.2)."""
        from repro.placement.cloudmirror import CloudMirrorPlacer

        cm_ledger = Ledger(small_datacenter)
        assert isinstance(CloudMirrorPlacer(cm_ledger).place(storm_tag), Placement)
        ovoc_ledger = Ledger(small_datacenter)
        assert isinstance(OktopusPlacer(ovoc_ledger).place(storm_tag), Placement)
        cm_total = sum(cm_ledger.reserved_at_level(lv) for lv in range(3))
        ovoc_total = sum(ovoc_ledger.reserved_at_level(lv) for lv in range(3))
        assert ovoc_total >= cm_total - 1e-6

    def test_oversized_tenant_rejected(self, small_ledger):
        tag = Tag("giant")
        tag.add_component("app", 1000)
        result = OktopusPlacer(small_ledger).place(tag)
        assert isinstance(result, Rejection)

    def test_bandwidth_rejection_leaves_no_residue(self):
        topology = single_rack(servers=2, slots_per_server=4, nic_mbps=10.0)
        ledger = Ledger(topology)
        tag = Tag("hot")
        tag.add_component("a", 8)
        tag.add_self_loop("a", 100.0)
        result = OktopusPlacer(ledger).place(tag)
        assert isinstance(result, Rejection)
        assert ledger.free_slots(topology.root) == 8
        assert not ledger.has_overcommit()

    def test_release_restores_ledger(self, small_ledger, three_tier_tag):
        placer = OktopusPlacer(small_ledger)
        result = placer.place(three_tier_tag.scaled(0.2))
        assert isinstance(result, Placement)
        result.allocation.release()
        assert small_ledger.free_slots(small_ledger.topology.root) == 512
        for level in range(3):
            assert small_ledger.reserved_at_level(level) == pytest.approx(0.0)


class TestOktopusHa:
    def test_wcs_guarantee(self, small_ledger):
        ha = HaPolicy(required_wcs=0.5, laa_level=0)
        placer = OktopusPlacer(small_ledger, ha=ha)
        tag = Tag("svc")
        tag.add_component("app", 8)
        tag.add_self_loop("app", 10.0)
        result = placer.place(tag)
        assert isinstance(result, Placement)
        assert allocation_wcs(result.allocation, laa_level=0)["app"] >= 0.5
