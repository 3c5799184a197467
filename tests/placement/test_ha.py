"""Tests for HA policies, the demand estimator and WCS accounting."""

from __future__ import annotations

import pytest

from repro.core.tag import Tag
from repro.placement.ha import (
    DemandEstimator,
    HaPolicy,
    allocation_wcs,
    saving_desirable,
    tier_cap_left,
)
from repro.placement.state import TenantAllocation
from repro.topology.ledger import Journal
from tests.tags import hose_tag


class TestHaPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            HaPolicy(required_wcs=1.0)
        with pytest.raises(ValueError):
            HaPolicy(laa_level=-1)

    def test_tier_cap(self):
        ha = HaPolicy(required_wcs=0.5)
        assert ha.tier_cap(10) == 5
        assert ha.tier_cap(1) == 1
        assert HaPolicy().tier_cap(10) == 10


class TestTierCapLeft:
    def test_headroom_shrinks_with_placement(self, small_ledger):
        tag = Tag("t")
        tag.add_component("app", 8)
        allocation = TenantAllocation(tag, small_ledger)
        ha = HaPolicy(required_wcs=0.5, laa_level=0)
        server = small_ledger.topology.servers[0]
        assert tier_cap_left(ha, allocation, server.node_id, "app") == 4
        allocation.place(server.node_id, "app", 3, small_ledger.flat.root_id)
        assert tier_cap_left(ha, allocation, server.node_id, "app") == 1

    def test_no_policy_means_tier_size(self, small_ledger):
        tag = Tag("t")
        tag.add_component("app", 8)
        allocation = TenantAllocation(tag, small_ledger)
        server = small_ledger.topology.servers[0]
        assert tier_cap_left(HaPolicy(), allocation, server, "app") == 8


class TestDemandEstimator:
    def test_running_mean(self):
        estimator = DemandEstimator()
        assert estimator.expected_per_vm_demand == 0.0
        tag = hose_tag("h", size=4, bandwidth=100.0)
        estimator.observe(tag)
        assert estimator.expected_per_vm_demand == pytest.approx(100.0)
        estimator.observe(tag.scaled(3.0))
        assert estimator.expected_per_vm_demand == pytest.approx(200.0)


class TestSavingDesirable:
    def test_scarce_bandwidth_is_desirable(self, small_ledger):
        server = small_ledger.topology.servers[0]
        # 1000 Mbps / 4 slots = 250 per slot.
        assert saving_desirable(small_ledger, server.node_id, expected_demand=300.0)
        assert not saving_desirable(small_ledger, server.node_id, expected_demand=200.0)

    def test_full_subtree_is_trivially_desirable(self, small_ledger):
        server = small_ledger.topology.servers[0]
        journal = Journal()
        small_ledger.reserve_slots(server.node_id, 4, journal)
        assert saving_desirable(small_ledger, server.node_id, expected_demand=0.1)

    def test_root_always_desirable(self, small_ledger):
        assert saving_desirable(
            small_ledger, small_ledger.flat.root_id, expected_demand=0.0
        )


class TestAllocationWcs:
    def test_wcs_per_tier(self, small_ledger):
        tag = Tag("t")
        tag.add_component("app", 4)
        allocation = TenantAllocation(tag, small_ledger)
        servers = small_ledger.topology.servers
        allocation.place(servers[0].node_id, "app", 2, small_ledger.flat.root_id)
        allocation.place(servers[1].node_id, "app", 2, small_ledger.flat.root_id)
        assert allocation_wcs(allocation, laa_level=0)["app"] == pytest.approx(0.5)
