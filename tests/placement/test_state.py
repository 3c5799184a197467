"""Tests for TenantAllocation: counts, exact re-reservation, rollback."""

from __future__ import annotations

import pytest

from repro.core.bandwidth import BandwidthDemand, uplink_requirement
from repro.core.tag import Tag
from repro.errors import ReproError
from repro.models.voc import voc_uplink_requirement
from repro.obs import core as obs
from repro.placement.state import TenantAllocation
from repro.topology.ledger import Ledger
from tests import tags
from tests.fabrics import servers_under


@pytest.fixture
def hose_tag() -> Tag:
    return tags.hose_tag("h", size=4, bandwidth=100.0)


class TestPlacement:
    def test_place_updates_counts_everywhere(self, small_ledger, hose_tag):
        allocation = TenantAllocation(hose_tag, small_ledger)
        topology = small_ledger.topology
        server = topology.servers[0]
        assert allocation.place(server, "all", 2, topology.root)
        assert allocation.count_id(server.node_id, "all") == 2
        tor = server.parent
        assert allocation.count_id(tor.node_id, "all") == 2
        assert allocation.count_id(topology.root.node_id, "all") == 2
        assert allocation.placed_vms == 2
        assert allocation.remaining_tiers().get("all", 0) == 2

    def test_exact_hose_reservation_rises_then_falls(
        self, small_ledger, hose_tag
    ):
        """The signature property: colocating the second half of a hose
        tier *reduces* the subtree reservation back to zero."""
        allocation = TenantAllocation(hose_tag, small_ledger)
        topology = small_ledger.topology
        tor = topology.level_nodes(1)[0]
        servers = list(servers_under(topology, tor))
        allocation.place(servers[0], "all", 2, topology.root)
        # Half inside the rack: ToR uplink must carry min(2,2)*100 = 200.
        assert allocation.reserved_on(tor).out == pytest.approx(200.0)
        allocation.place(servers[1], "all", 2, topology.root)
        # Whole tier inside: crossing drops to zero.
        assert allocation.reserved_on(tor).out == pytest.approx(0.0)
        assert small_ledger.reserved_up(tor) == pytest.approx(0.0)

    def test_server_reservation_respects_colocation(
        self, small_ledger, hose_tag
    ):
        allocation = TenantAllocation(hose_tag, small_ledger)
        topology = small_ledger.topology
        server = topology.servers[0]
        allocation.place(server, "all", 4, topology.root)
        # Whole hose on one server: no uplink bandwidth needed at all.
        assert small_ledger.reserved_up(server) == pytest.approx(0.0)

    def test_slot_shortage_returns_false(self, small_ledger, hose_tag):
        allocation = TenantAllocation(hose_tag, small_ledger)
        server = small_ledger.topology.servers[0]  # 4 slots
        assert allocation.place(server, "all", 4, small_ledger.topology.root)
        fresh = TenantAllocation(hose_tag, small_ledger)
        assert not fresh.place(server, "all", 1, small_ledger.topology.root)

    def test_overplacement_raises(self, small_ledger, hose_tag):
        allocation = TenantAllocation(hose_tag, small_ledger)
        server = small_ledger.topology.servers[0]
        with pytest.raises(ReproError):
            allocation.place(server, "all", 5, small_ledger.topology.root)

    def test_ceiling_limits_reservation_scope(self, small_ledger, hose_tag):
        allocation = TenantAllocation(hose_tag, small_ledger)
        topology = small_ledger.topology
        tor = topology.level_nodes(1)[0]
        server = next(iter(servers_under(topology, tor)))
        allocation.place(server, "all", 2, ceiling=tor)
        # Below the ceiling: server uplink reserved; at/above: nothing yet.
        assert small_ledger.reserved_up(server) == pytest.approx(200.0)
        assert small_ledger.reserved_up(tor) == pytest.approx(0.0)


    def test_only_the_two_compiled_requirements_are_taken(
        self, small_ledger, hose_tag
    ):
        """Eq. 1 and VOC are compiled per tag; any other function is
        refused rather than called per evaluation."""

        def doubled(tag, inside):
            demand = uplink_requirement(tag, inside)
            return BandwidthDemand(2 * demand.out, 2 * demand.into)

        with pytest.raises(ValueError, match="no compiled form"):
            TenantAllocation(hose_tag, small_ledger, doubled)
        for requirement in (uplink_requirement, voc_uplink_requirement):
            TenantAllocation(hose_tag, small_ledger, requirement)


class TestFinalize:
    def test_finalize_reserves_root_path(self, small_ledger, hose_tag):
        allocation = TenantAllocation(hose_tag, small_ledger)
        topology = small_ledger.topology
        tor = topology.level_nodes(1)[0]
        servers = list(servers_under(topology, tor))
        allocation.place(servers[0], "all", 2, ceiling=tor)
        allocation.place(servers[1], "all", 2, ceiling=tor)
        assert allocation.is_complete
        assert allocation.finalize(tor)
        # Whole tenant under the ToR: ToR and agg uplinks carry zero.
        assert small_ledger.reserved_up(tor) == pytest.approx(0.0)
        assert allocation.finalized

    def test_finalize_requires_completeness(self, small_ledger, hose_tag):
        allocation = TenantAllocation(hose_tag, small_ledger)
        with pytest.raises(ReproError):
            allocation.finalize(small_ledger.topology.root)

    def test_finalize_rejects_a_root_below_part_of_the_tenant(
        self, small_ledger, hose_tag
    ):
        allocation = TenantAllocation(hose_tag, small_ledger)
        topology = small_ledger.topology
        tor = topology.level_nodes(1)[0]
        servers = list(servers_under(topology, tor))
        allocation.place(servers[0], "all", 2, ceiling=tor)
        allocation.place(servers[1], "all", 2, ceiling=tor)
        before = (list(small_ledger._used_up), list(allocation.journal.ops))
        with pytest.raises(ReproError, match=servers[0].name):
            allocation.finalize(servers[0])
        # A server that holds none of it is just as wrong as one holding half.
        with pytest.raises(ReproError, match=servers[2].name):
            allocation.finalize(servers[2])
        assert before == (list(small_ledger._used_up), list(allocation.journal.ops))
        assert not allocation.finalized
        assert allocation.finalize(tor)

    def test_finalize_at_the_tree_root_only_checks_overcommit(
        self, small_ledger, hose_tag
    ):
        allocation = TenantAllocation(hose_tag, small_ledger)
        topology = small_ledger.topology
        far = topology.level_nodes(1)[-1]
        servers = [topology.servers[0], next(iter(servers_under(topology, far)))]
        for server in servers:
            allocation.place(server, "all", 2, ceiling=topology.root)
        ops = len(allocation.journal.ops)
        with obs.enabled_scope() as counters:
            assert allocation.finalize(topology.root)
            assert "placement.reservation_updates" not in counters
        assert len(allocation.journal.ops) == ops

        crowded = TenantAllocation(hose_tag, small_ledger)
        for server in servers:
            crowded.place(server, "all", 2, ceiling=topology.root)
        small_ledger.adjust_uplink_id(far.node_id, 1e9, 0.0, crowded.journal)
        assert not crowded.finalize(topology.root)
        assert not crowded.finalized

    def test_finalize_at_a_server_evaluates_once_for_every_hop(self, small_ledger):
        tag = Tag("front")
        tag.add_component("web", 3)
        tag.add_component("internet", external=True)
        tag.add_edge("web", "internet", 40.0, 1e9)
        tag.add_edge("internet", "web", 1e9, 25.0)
        allocation = TenantAllocation(tag, small_ledger)
        topology = small_ledger.topology
        server = topology.servers[0]
        allocation.place(server, "web", 3, ceiling=server)
        with obs.enabled_scope() as counters:
            assert allocation.finalize(server)
            assert counters["placement.reservation_updates"] == 1
            assert counters["placement.reservation_writes"] == 3
        for node in (server, server.parent, server.parent.parent):
            assert allocation.reserved_on(node) == BandwidthDemand(120.0, 75.0)
            assert small_ledger.reserved_up(node) == 120.0
            assert small_ledger.reserved_down(node) == 75.0

    def test_place_after_finalize_raises(self, small_ledger, hose_tag):
        allocation = TenantAllocation(hose_tag, small_ledger)
        topology = small_ledger.topology
        server = topology.servers[0]
        allocation.place(server, "all", 4, server)
        allocation.finalize(server)
        with pytest.raises(ReproError):
            allocation.place(topology.servers[1], "all", 1, server)


class TestRollbackAndRelease:
    def test_rollback_restores_all_state(self, small_ledger, hose_tag):
        allocation = TenantAllocation(hose_tag, small_ledger)
        topology = small_ledger.topology
        server = topology.servers[0]
        savepoint = allocation.savepoint()
        allocation.place(server, "all", 3, topology.root)
        allocation.rollback(savepoint)
        assert allocation.placed_vms == 0
        assert allocation.remaining_tiers().get("all", 0) == 4
        assert allocation.count_id(server.node_id, "all") == 0
        assert small_ledger.used_slots(server) == 0
        assert small_ledger.reserved_up(server) == pytest.approx(0.0)

    def test_release_returns_everything(self, small_ledger, hose_tag):
        allocation = TenantAllocation(hose_tag, small_ledger)
        topology = small_ledger.topology
        tor = topology.level_nodes(1)[0]
        servers = list(servers_under(topology, tor))
        allocation.place(servers[0], "all", 2, tor)
        allocation.place(servers[1], "all", 2, tor)
        allocation.finalize(tor)
        allocation.release()
        assert small_ledger.free_slots(topology.root) == 512
        for level in range(3):
            assert small_ledger.reserved_at_level(level) == pytest.approx(0.0)

    def test_iter_server_placements(self, small_ledger, three_tier_tag):
        allocation = TenantAllocation(three_tier_tag, small_ledger)
        topology = small_ledger.topology
        allocation.place(topology.servers[0], "web", 2, topology.root)
        allocation.place(topology.servers[0], "logic", 1, topology.root)
        allocation.place(topology.servers[1], "db", 3, topology.root)
        placements = dict(
            (server.name, dict(counts))
            for server, counts in allocation.iter_server_placements()
        )
        assert placements[topology.servers[0].name] == {"web": 2, "logic": 1}
        assert placements[topology.servers[1].name] == {"db": 3}

    def test_tier_spread(self, small_ledger, three_tier_tag):
        allocation = TenantAllocation(three_tier_tag, small_ledger)
        topology = small_ledger.topology
        allocation.place(topology.servers[0], "web", 3, topology.root)
        allocation.place(topology.servers[1], "web", 1, topology.root)
        spread = allocation.tier_spread("web", level=0)
        assert sorted(spread.values()) == [1, 3]
