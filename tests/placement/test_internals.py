"""White-box tests of placement internals (heuristics, VC math, paths)."""

from __future__ import annotations

import math
from functools import partial

import pytest

from repro import _kernels
from repro.core.tag import Tag
from repro.models.voc import VocCluster
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.placement.oktopus import OktopusPlacer
from repro.placement.secondnet import SecondNetPlacer
from repro.placement.state import TenantAllocation
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Ledger


@pytest.fixture
def setup(small_datacenter):
    ledger = Ledger(small_datacenter)
    return small_datacenter, ledger, CloudMirrorPlacer(ledger)


class TestLowBandwidthThreshold:
    def test_nominal_per_slot(self, setup):
        topology, ledger, placer = setup
        tor = topology.level_nodes(1)[0]
        # Children are servers: 1000 Mbps / 4 slots = 250 per slot.
        assert placer._low_bw_threshold(tor) == pytest.approx(250.0)

    def test_unlimited_topology_uses_nominals(self):
        spec = DatacenterSpec(
            servers_per_rack=4, racks_per_pod=2, pods=1, slots_per_server=4
        )
        topology = three_level_tree(spec, unlimited=True)
        ledger = Ledger(topology)
        placer = CloudMirrorPlacer(ledger)
        tor = topology.level_nodes(1)[0]
        # 10G nominal / 4 slots despite infinite enforced capacity.
        assert placer._low_bw_threshold(tor) == pytest.approx(2500.0)


def best_coloc(placer, allocation, want, subtree):
    """The colocation scan's pick: ``(saving, child_id, request)`` or None."""
    placer._candidate_plan(allocation.tag)
    option = partial(
        placer._coloc_option, allocation, want, placer._low_bw_threshold(subtree)
    )
    return placer._scan(
        allocation, subtree, set(), option, False, allocation.internal_tiers, {}, None
    )


class TestFindTiersToColoc:
    def test_prefers_trunk_pair_with_highest_saving(self, setup):
        topology, ledger, placer = setup
        tag = Tag("t")
        tag.add_component("hot-a", 4)
        tag.add_component("hot-b", 4)
        tag.add_component("cold-a", 4)
        tag.add_component("cold-b", 4)
        tag.add_edge("hot-a", "hot-b", 400.0, 400.0)
        tag.add_edge("cold-a", "cold-b", 300.0, 300.0)
        allocation = TenantAllocation(tag, ledger)
        # Trunk colocation needs room for both endpoints: evaluate at the
        # agg level, whose ToR children hold 64 slots (a 4-slot server
        # cannot yield Eq. 4 saving for two 4-VM tiers).
        agg = topology.level_nodes(2)[0]
        want = allocation.remaining_tiers()
        saving, child_id, request = best_coloc(placer, allocation, want, agg)
        assert set(request) == {"hot-a", "hot-b"}
        # Equally good children: the earliest one wins.
        assert child_id == topology.flat.children_ids[agg.node_id][0]

    def test_low_bandwidth_tiers_excluded(self, setup):
        topology, ledger, placer = setup
        tag = Tag("t")
        tag.add_component("light", 4)
        tag.add_self_loop("light", 10.0)  # far below the 250 threshold
        allocation = TenantAllocation(tag, ledger)
        tor = topology.level_nodes(1)[0]
        want = allocation.remaining_tiers()
        assert best_coloc(placer, allocation, want, tor) is None

    def test_hose_candidate_when_heavy(self, setup):
        topology, ledger, placer = setup
        tag = Tag("t")
        tag.add_component("heavy", 4)
        tag.add_self_loop("heavy", 400.0)
        allocation = TenantAllocation(tag, ledger)
        agg = topology.level_nodes(2)[0]
        want = allocation.remaining_tiers()
        saving, _, request = best_coloc(placer, allocation, want, agg)
        assert request == {"heavy": 4}
        assert saving > 0


class TestOktopusVcMath:
    @pytest.fixture
    def oktopus(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        return small_datacenter, ledger, OktopusPlacer(ledger)

    def test_cluster_bw_aggregates_hose_and_core(self):
        cluster = VocCluster("c", 4, hose_bw=50.0, core_out=100.0, core_in=80.0)
        assert OktopusPlacer._cluster_bw(cluster) == pytest.approx(150.0)

    def test_max_feasible_full_fit(self, oktopus):
        topology, ledger, placer = oktopus
        tag = Tag("t")
        tag.add_component("c", 4)
        allocation = TenantAllocation(tag, ledger)
        cluster = VocCluster("c", 4, 100.0, 0.0, 0.0)
        server = topology.servers[0]
        # All 4 under one server: crossing min(4,0)*100 = 0 <= NIC.
        assert placer._max_feasible(allocation, cluster, server, 4) == 4

    def test_max_feasible_ascending_branch(self, oktopus):
        topology, ledger, placer = oktopus
        tag = Tag("t")
        tag.add_component("c", 20)
        allocation = TenantAllocation(tag, ledger)
        cluster = VocCluster("c", 20, 400.0, 0.0, 0.0)
        server = topology.servers[0]  # 4 slots, 1000 Mbps
        # Can't host a majority (4 < 10): crossing = m*400 <= 1000 -> m <= 2.
        assert placer._max_feasible(allocation, cluster, server, 4) == 2

    def test_zero_bandwidth_cluster_unconstrained(self, oktopus):
        topology, ledger, placer = oktopus
        tag = Tag("t")
        tag.add_component("c", 8)
        allocation = TenantAllocation(tag, ledger)
        cluster = VocCluster("c", 8, 0.0, 0.0, 0.0)
        server = topology.servers[0]
        assert placer._max_feasible(allocation, cluster, server, 4) == 4


class TestSecondNetPaths:
    def test_path_links_same_rack(self, small_datacenter):
        placer = SecondNetPlacer(Ledger(small_datacenter))
        tor = small_datacenter.level_nodes(1)[0]
        a, b = list(small_datacenter.servers_under(tor))[:2]
        links = placer._path_links(a, b)
        # One hop up from a, one hop down to b.
        assert {(n.name, up) for n, up in links} == {
            (a.name, True),
            (b.name, False),
        }

    def test_path_links_cross_pod(self, small_datacenter):
        placer = SecondNetPlacer(Ledger(small_datacenter))
        pods = small_datacenter.level_nodes(2)
        src = next(iter(small_datacenter.servers_under(pods[0])))
        dst = next(iter(small_datacenter.servers_under(pods[1])))
        links = placer._path_links(src, dst)
        ups = [n.level for n, up in links if up]
        downs = [n.level for n, up in links if not up]
        # server+tor+agg up on the source side, mirrored down on the dest.
        assert sorted(ups) == [0, 1, 2]
        assert sorted(downs) == [0, 1, 2]

    def test_hops_heuristic_ordering(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        flat = ledger.flat
        racks = small_datacenter.level_nodes(1)
        tor_a, tor_far = racks[0], racks[-1]
        server = next(iter(small_datacenter.servers_under(tor_a)))
        order = _kernels.rack_order(
            flat.parent,
            ledger._free_subtree,
            [rack.node_id for rack in racks],
            [(server.node_id, 10.0, True)],
        )
        # The peer's own rack (2 hops) first, the rest of its pod (4
        # hops) next, the other pod (6 hops) last, each in input order.
        pod = flat.parent[tor_a.node_id]
        near = [rack.node_id for rack in racks[1:] if flat.parent[rack.node_id] == pod]
        far = [rack.node_id for rack in racks if flat.parent[rack.node_id] != pod]
        assert order == [tor_a.node_id] + near + far
        assert order[-1] == tor_far.node_id


class TestSubtreeChoice:
    def test_best_fit_prefers_fuller_subtree(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        placer = CloudMirrorPlacer(ledger)
        # Occupy half of rack 0 so it becomes the tighter fit.
        from repro.topology.ledger import Journal

        tor0 = small_datacenter.level_nodes(1)[0]
        servers0 = list(small_datacenter.servers_under(tor0))
        for server in servers0[:8]:
            ledger.reserve_slots(server, 4, Journal())
        tag = Tag("t")
        tag.add_component("a", 16)
        chosen = placer._find_lowest_subtree(tag, 1)
        assert chosen is tor0  # 32 free slots beats the untouched racks


class TestExternalDemandPath:
    def test_insufficient_root_path_rejects_candidate(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        placer = CloudMirrorPlacer(ledger)
        tag = Tag("edge")
        tag.add_component("web", 2)
        tag.add_component("internet", external=True)
        # More external demand than the ToR uplink (1000*16/4 = 4000).
        tag.add_edge("web", "internet", send=3000.0, recv=3000.0)
        demand = placer._candidate_plan(tag).external
        assert demand.out == pytest.approx(6000.0)
        tor = small_datacenter.level_nodes(1)[0]
        assert not placer._root_path_available_id(tor.node_id, demand)
