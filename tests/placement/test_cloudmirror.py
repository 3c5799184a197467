"""Tests for the CloudMirror placement algorithm (Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.core.tag import Tag
from repro.placement.base import Placement, Rejection
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.placement.ha import HaPolicy, allocation_wcs
from repro.simulation.runner import make_placer
from repro.temporal.admission import TemporalCluster
from repro.temporal.profile import TemporalProfile, TemporalTag
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Ledger
from tests.fabrics import single_rack
from tests.tags import hose_tag


def place_ok(placer, tag):
    result = placer.place(tag)
    assert isinstance(result, Placement), getattr(result, "reason", None)
    return result.allocation


class TestBasicPlacement:
    def test_small_tenant_fits_one_server(self, small_ledger, three_tier_tag):
        placer = CloudMirrorPlacer(small_ledger)
        tag = Tag("tiny")
        tag.add_component("app", 3)
        tag.add_self_loop("app", 10.0)
        allocation = place_ok(placer, tag)
        servers = list(allocation.iter_server_placements())
        assert len(servers) == 1

    def test_three_tier_placement_reserves_consistently(
        self, small_ledger, three_tier_tag
    ):
        placer = CloudMirrorPlacer(small_ledger)
        allocation = place_ok(placer, three_tier_tag)
        assert allocation.is_complete
        assert not small_ledger.has_overcommit()
        # Release restores a clean datacenter.
        allocation.release()
        assert small_ledger.free_slots(small_ledger.topology.root) == 512
        assert small_ledger.reserved_at_level(0) == pytest.approx(0.0)

    def test_oversized_tenant_rejected(self, small_ledger):
        placer = CloudMirrorPlacer(small_ledger)
        tag = Tag("giant")
        tag.add_component("app", 513)
        result = placer.place(tag)
        assert isinstance(result, Rejection)
        assert "slots" in result.reason

    def test_sequential_tenants_fill_cluster(self, small_ledger):
        placer = CloudMirrorPlacer(small_ledger)
        placed = 0
        for i in range(200):
            tag = Tag(f"t{i}")
            tag.add_component("app", 4)
            tag.add_self_loop("app", 5.0)
            if isinstance(placer.place(tag), Placement):
                placed += 1
        # 512 slots / 4 = 128 tenants exactly (bandwidth is tiny).
        assert placed == 128

    def test_hose_tenant_uses_colocation(self, small_ledger):
        """A hose tier that fits one rack should not leak onto ToR uplinks."""
        placer = CloudMirrorPlacer(small_ledger)
        tag = hose_tag("h", size=16, bandwidth=50.0)
        place_ok(placer, tag)
        assert small_ledger.reserved_at_level(1) == pytest.approx(0.0)

    def test_bandwidth_rejection(self):
        """Demand beyond every link's capacity must reject, not overcommit."""
        topology = single_rack(servers=2, slots_per_server=2, nic_mbps=10.0)
        ledger = Ledger(topology)
        placer = CloudMirrorPlacer(ledger)
        tag = Tag("hot")
        tag.add_component("a", 2)
        tag.add_component("b", 2)
        tag.add_edge("a", "b", 100.0, 100.0)  # 100 Mbps >> 10 Mbps NICs
        result = placer.place(tag)
        # Either layout avoids the NICs only if a and b share every server;
        # with 2 slots per server a+b pairs *can* colocate per server.
        if isinstance(result, Placement):
            for server_id, counts in result.allocation.iter_server_placements():
                assert counts.get("a", 0) == counts.get("b", 0)
        assert not ledger.has_overcommit()

    def test_external_component_demand_reserved_to_root(self, small_ledger):
        tag = Tag("frontend")
        tag.add_component("web", 4)
        tag.add_component("internet", external=True)
        tag.add_edge("web", "internet", send=50.0, recv=50.0)
        tag.add_edge("internet", "web", send=50.0, recv=50.0)
        placer = CloudMirrorPlacer(small_ledger)
        allocation = place_ok(placer, tag)
        # 4 web VMs x 50 Mbps must be reserved on the whole root path.
        server_id = next(iter(allocation.iter_server_placements()))[0]
        for node_id in small_ledger.flat.path_up[server_id]:
            node = small_ledger.topology.node(node_id)
            assert small_ledger.reserved_up(node) >= 200.0 - 1e-6

    def test_rejection_leaves_no_residue(self):
        topology = single_rack(servers=2, slots_per_server=2, nic_mbps=10.0)
        ledger = Ledger(topology)
        placer = CloudMirrorPlacer(ledger)
        tag = Tag("hot")
        tag.add_component("a", 4)
        tag.add_self_loop("a", 100.0)
        result = placer.place(tag)
        assert isinstance(result, Rejection)
        assert ledger.free_slots(topology.root) == 4
        assert not ledger.has_overcommit()
        for server in topology.servers:
            assert ledger.reserved_up(server) == pytest.approx(0.0)


def _on_ledger(name, ha, tag):
    ledger = Ledger(three_level_tree(DatacenterSpec(pods=1)))
    return ledger, place_ok(make_placer(name, ledger, ha), tag)


def _on_temporal_cluster(name, ha, tag):
    cluster = TemporalCluster(DatacenterSpec(pods=1), windows=2)
    cluster.placer = make_placer(name, cluster.ledger, ha)
    admission = cluster.admit(TemporalTag(tag, TemporalProfile.flat(2, 1.0)))
    assert admission is not None
    return cluster.ledger, admission.allocation


class TestTinyRate:
    """A rate so small that free bandwidth over it overflows to inf is
    still a valid rate: the greedy fill must not ``int()`` the quotient."""

    @pytest.mark.parametrize(
        "storage", [_on_ledger, _on_temporal_cluster], ids=["ledger", "temporal"]
    )
    @pytest.mark.parametrize(
        "name, ha",
        [
            ("cm", None),
            ("cm-coloc-only", None),
            ("cm-balance-only", None),
            ("cm", HaPolicy(required_wcs=0.5)),
        ],
        ids=["cm", "cm-coloc-only", "cm-balance-only", "cm-wcs"],
    )
    def test_subnormal_rate_places(self, storage, name, ha):
        tag = Tag("tiny-rate")
        tag.add_component("a", 40)
        tag.add_component("b", 40)
        tag.add_edge("a", "b", 1e-310, 1e-310)
        ledger, allocation = storage(name, ha, tag)
        assert allocation.placed_vms == 80
        assert not ledger.has_overcommit()


class TestColocationBehaviour:
    def test_trunk_pair_colocated(self, small_ledger):
        """Two heavily-communicating tiers land under a common subtree."""
        placer = CloudMirrorPlacer(small_ledger)
        tag = Tag("pair")
        tag.add_component("a", 8)
        tag.add_component("b", 8)
        tag.add_edge("a", "b", 400.0, 400.0)
        allocation = place_ok(placer, tag)
        # Everything fits under one rack (16 VMs, 64 slots): the ToR
        # uplink needs nothing.
        assert small_ledger.reserved_at_level(1) == pytest.approx(0.0)

    def test_storm_style_tenant(self, small_ledger, storm_tag):
        placer = CloudMirrorPlacer(small_ledger)
        allocation = place_ok(placer, storm_tag)
        assert allocation.is_complete

    def test_ablation_variants_still_place(self, small_datacenter, storm_tag):
        for kwargs in (
            {"enable_balance": False},
            {"enable_colocate": False},
        ):
            ledger = Ledger(small_datacenter)
            placer = CloudMirrorPlacer(ledger, **kwargs)
            result = placer.place(storm_tag)
            assert isinstance(result, Placement)


class TestHaGuarantee:
    def test_wcs_guarantee_enforced(self, small_ledger):
        ha = HaPolicy(required_wcs=0.5, laa_level=0)
        placer = CloudMirrorPlacer(small_ledger, ha=ha)
        tag = Tag("svc")
        tag.add_component("app", 8)
        tag.add_self_loop("app", 10.0)
        allocation = place_ok(placer, tag)
        wcs = allocation_wcs(allocation, laa_level=0)
        assert wcs["app"] >= 0.5

    def test_wcs_guarantee_at_tor_level(self, small_ledger):
        ha = HaPolicy(required_wcs=0.5, laa_level=1)
        placer = CloudMirrorPlacer(small_ledger, ha=ha)
        tag = Tag("svc")
        tag.add_component("app", 8)
        tag.add_self_loop("app", 10.0)
        allocation = place_ok(placer, tag)
        assert allocation_wcs(allocation, laa_level=1)["app"] >= 0.5

    def test_eq7_cap_respected_on_every_server(self, small_ledger):
        ha = HaPolicy(required_wcs=0.75, laa_level=0)
        placer = CloudMirrorPlacer(small_ledger, ha=ha)
        tag = Tag("svc")
        tag.add_component("app", 12)
        allocation = place_ok(placer, tag)
        cap = ha.tier_cap(12)  # int(12 * 0.25) = 3
        assert cap == 3
        for _, counts in allocation.iter_server_placements():
            assert counts.get("app", 0) <= cap

    def test_opportunistic_never_worse_than_rejecting(self, small_ledger):
        """oppHA falls back to the plain algorithm before rejecting."""
        placer = CloudMirrorPlacer(
            small_ledger, ha=HaPolicy(opportunistic=True)
        )
        tag = Tag("svc")
        tag.add_component("app", 100)
        tag.add_self_loop("app", 20.0)
        assert isinstance(placer.place(tag), Placement)

    def test_opportunistic_spreads_small_tenants(self, small_ledger):
        """With plentiful bandwidth, oppHA avoids single-server stacking."""
        placer = CloudMirrorPlacer(
            small_ledger, ha=HaPolicy(opportunistic=True)
        )
        for i in range(5):
            tag = Tag(f"t{i}")
            tag.add_component("app", 4)
            tag.add_self_loop("app", 5.0)  # low demand: saving undesirable
            allocation = place_ok(placer, tag)
            servers = list(allocation.iter_server_placements())
            assert len(servers) > 1, "oppHA should spread across servers"


class TestDeterminism:
    def test_same_sequence_same_result(self, small_datacenter, three_tier_tag):
        def run():
            ledger = Ledger(small_datacenter)
            placer = CloudMirrorPlacer(ledger)
            allocation = place_ok(placer, three_tier_tag)
            return sorted(
                (
                    allocation.ledger.topology.node(server_id).name,
                    tuple(sorted(counts.items())),
                )
                for server_id, counts in allocation.iter_server_placements()
            )

        assert run() == run()
