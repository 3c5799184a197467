"""Tests for TenantAllocation: counts, exact re-reservation, rollback."""

from __future__ import annotations

import pytest

from repro.core.bandwidth import BandwidthDemand, uplink_requirement
from repro.core.tag import Tag
from repro.errors import ReproError
from repro.models.voc import voc_uplink_requirement
from repro.obs import core as obs
from repro.placement.state import TenantAllocation
from tests import tags
from tests.fabrics import level_nodes, servers_under
from tests.placement.undo_logs import committed_logs


@pytest.fixture
def hose_tag() -> Tag:
    return tags.hose_tag("h", size=4, bandwidth=100.0)


class TestPlacement:
    def test_place_updates_counts_everywhere(self, small_ledger, hose_tag):
        allocation = TenantAllocation(hose_tag, small_ledger)
        topology = small_ledger.topology
        server = topology.servers[0]
        assert allocation.place(server.node_id, "all", 2, topology.root.node_id)
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
        tor = level_nodes(topology, 1)[0]
        servers = list(servers_under(topology, tor))
        allocation.place(servers[0].node_id, "all", 2, topology.root.node_id)
        # Half inside the rack: ToR uplink must carry min(2,2)*100 = 200.
        assert allocation.reserved_on(tor.node_id).out == pytest.approx(200.0)
        allocation.place(servers[1].node_id, "all", 2, topology.root.node_id)
        # Whole tier inside: crossing drops to zero.
        assert allocation.reserved_on(tor.node_id).out == pytest.approx(0.0)
        assert small_ledger.reserved_up(tor) == pytest.approx(0.0)

    def test_server_reservation_respects_colocation(
        self, small_ledger, hose_tag
    ):
        allocation = TenantAllocation(hose_tag, small_ledger)
        topology = small_ledger.topology
        server = topology.servers[0]
        allocation.place(server.node_id, "all", 4, topology.root.node_id)
        # Whole hose on one server: no uplink bandwidth needed at all.
        assert small_ledger.reserved_up(server) == pytest.approx(0.0)

    def test_slot_shortage_returns_false(self, small_ledger, hose_tag):
        allocation = TenantAllocation(hose_tag, small_ledger)
        server = small_ledger.topology.servers[0]  # 4 slots
        assert allocation.place(server.node_id, "all", 4, small_ledger.flat.root_id)
        fresh = TenantAllocation(hose_tag, small_ledger)
        assert not fresh.place(server.node_id, "all", 1, small_ledger.flat.root_id)

    def test_overplacement_raises(self, small_ledger, hose_tag):
        allocation = TenantAllocation(hose_tag, small_ledger)
        server = small_ledger.topology.servers[0]
        with pytest.raises(ReproError):
            allocation.place(server.node_id, "all", 5, small_ledger.flat.root_id)

    def test_ceiling_limits_reservation_scope(self, small_ledger, hose_tag):
        allocation = TenantAllocation(hose_tag, small_ledger)
        topology = small_ledger.topology
        tor = level_nodes(topology, 1)[0]
        server = next(iter(servers_under(topology, tor)))
        allocation.place(server.node_id, "all", 2, ceiling_id=tor.node_id)
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
        tor = level_nodes(topology, 1)[0]
        servers = list(servers_under(topology, tor))
        allocation.place(servers[0].node_id, "all", 2, ceiling_id=tor.node_id)
        allocation.place(servers[1].node_id, "all", 2, ceiling_id=tor.node_id)
        assert allocation.is_complete
        assert allocation.finalize(tor.node_id)
        # Whole tenant under the ToR: ToR and agg uplinks carry zero.
        assert small_ledger.reserved_up(tor) == pytest.approx(0.0)
        assert allocation.finalized

    def test_finalize_requires_completeness(self, small_ledger, hose_tag):
        allocation = TenantAllocation(hose_tag, small_ledger)
        with pytest.raises(ReproError):
            allocation.finalize(small_ledger.flat.root_id)

    def test_finalize_rejects_a_root_below_part_of_the_tenant(
        self, small_ledger, hose_tag
    ):
        allocation = TenantAllocation(hose_tag, small_ledger)
        topology = small_ledger.topology
        tor = level_nodes(topology, 1)[0]
        servers = list(servers_under(topology, tor))
        allocation.place(servers[0].node_id, "all", 2, ceiling_id=tor.node_id)
        allocation.place(servers[1].node_id, "all", 2, ceiling_id=tor.node_id)
        before = (list(small_ledger._used_up), list(allocation.journal.ops))
        with pytest.raises(ReproError, match=servers[0].name):
            allocation.finalize(servers[0].node_id)
        # A server that holds none of it is just as wrong as one holding half.
        with pytest.raises(ReproError, match=servers[2].name):
            allocation.finalize(servers[2].node_id)
        assert before == (list(small_ledger._used_up), list(allocation.journal.ops))
        assert not allocation.finalized
        assert allocation.finalize(tor.node_id)

    def test_finalize_at_the_tree_root_only_checks_overcommit(
        self, small_ledger, hose_tag
    ):
        allocation = TenantAllocation(hose_tag, small_ledger)
        topology = small_ledger.topology
        far = level_nodes(topology, 1)[-1]
        servers = [topology.servers[0], next(iter(servers_under(topology, far)))]
        for server in servers:
            allocation.place(server.node_id, "all", 2, ceiling_id=topology.root.node_id)
        ops = len(allocation.journal.ops)
        with obs.enabled_scope() as counters, committed_logs() as logs:
            assert allocation.finalize(topology.root.node_id)
            assert "placement.reservation_updates" not in counters
        # The log as the commit dropped it: finalize added nothing to it.
        [(journal, _)] = logs[allocation]
        assert len(journal) == ops

        crowded = TenantAllocation(hose_tag, small_ledger)
        for server in servers:
            crowded.place(server.node_id, "all", 2, ceiling_id=topology.root.node_id)
        small_ledger.adjust_uplink_id(far.node_id, 1e9, 0.0, crowded.journal)
        assert not crowded.finalize(topology.root.node_id)
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
        allocation.place(server.node_id, "web", 3, ceiling_id=server.node_id)
        with obs.enabled_scope() as counters:
            assert allocation.finalize(server.node_id)
            assert counters["placement.reservation_updates"] == 1
            assert counters["placement.reservation_writes"] == 3
        for node in (server, server.parent, server.parent.parent):
            assert allocation.reserved_on(node.node_id) == BandwidthDemand(120.0, 75.0)
            assert small_ledger.reserved_up(node) == 120.0
            assert small_ledger.reserved_down(node) == 75.0

    def test_place_after_finalize_raises(self, small_ledger, hose_tag):
        allocation = TenantAllocation(hose_tag, small_ledger)
        topology = small_ledger.topology
        server = topology.servers[0]
        allocation.place(server.node_id, "all", 4, server.node_id)
        allocation.finalize(server.node_id)
        with pytest.raises(ReproError):
            allocation.place(topology.servers[1].node_id, "all", 1, server.node_id)


class TestRollbackAndRelease:
    def test_rollback_restores_all_state(self, small_ledger, hose_tag):
        allocation = TenantAllocation(hose_tag, small_ledger)
        topology = small_ledger.topology
        server = topology.servers[0]
        savepoint = allocation.savepoint()
        allocation.place(server.node_id, "all", 3, topology.root.node_id)
        allocation.rollback(savepoint)
        assert allocation.placed_vms == 0
        assert allocation.remaining_tiers().get("all", 0) == 4
        assert allocation.count_id(server.node_id, "all") == 0
        assert small_ledger.used_slots(server) == 0
        assert small_ledger.reserved_up(server) == pytest.approx(0.0)

    def test_a_savepoint_taken_before_a_commit_raises_and_undoes_nothing(
        self, small_ledger, hose_tag
    ):
        allocation = TenantAllocation(hose_tag, small_ledger)
        topology = small_ledger.topology
        tor = level_nodes(topology, 1)[0]
        servers = list(servers_under(topology, tor))
        allocation.place(servers[0].node_id, "all", 2, tor.node_id)
        savepoint = allocation.savepoint()
        allocation.place(servers[1].node_id, "all", 2, tor.node_id)
        assert allocation.finalize(tor.node_id)
        assert allocation.journal.ops == [] and allocation._state_ops == []
        version = allocation.version
        before = (list(small_ledger._used_slots), list(small_ledger._used_up))
        with pytest.raises(ReproError, match="stale savepoint"):
            allocation.rollback(savepoint)
        assert allocation.version == version
        assert allocation.finalized and allocation.placed_vms == 4
        assert allocation.count_id(servers[1].node_id, "all") == 2
        assert (list(small_ledger._used_slots), list(small_ledger._used_up)) == before

    def test_release_returns_everything(self, small_ledger, hose_tag):
        allocation = TenantAllocation(hose_tag, small_ledger)
        topology = small_ledger.topology
        tor = level_nodes(topology, 1)[0]
        servers = list(servers_under(topology, tor))
        allocation.place(servers[0].node_id, "all", 2, tor.node_id)
        allocation.place(servers[1].node_id, "all", 2, tor.node_id)
        allocation.finalize(tor.node_id)
        allocation.release()
        assert small_ledger.free_slots(topology.root) == 512
        for level in range(3):
            assert small_ledger.reserved_at_level(level) == pytest.approx(0.0)

    def test_iter_server_placements(self, small_ledger, three_tier_tag):
        allocation = TenantAllocation(three_tier_tag, small_ledger)
        topology = small_ledger.topology
        allocation.place(topology.servers[0].node_id, "web", 2, topology.root.node_id)
        allocation.place(topology.servers[0].node_id, "logic", 1, topology.root.node_id)
        allocation.place(topology.servers[1].node_id, "db", 3, topology.root.node_id)
        placements = dict(
            (allocation.ledger.topology.node(server_id).name, dict(counts))
            for server_id, counts in allocation.iter_server_placements()
        )
        assert placements[topology.servers[0].name] == {"web": 2, "logic": 1}
        assert placements[topology.servers[1].name] == {"db": 3}

    def test_tier_spread(self, small_ledger, three_tier_tag):
        allocation = TenantAllocation(three_tier_tag, small_ledger)
        topology = small_ledger.topology
        allocation.place(topology.servers[0].node_id, "web", 3, topology.root.node_id)
        allocation.place(topology.servers[1].node_id, "web", 1, topology.root.node_id)
        spread = allocation.tier_spread("web", level=0)
        assert sorted(spread.values()) == [1, 3]
