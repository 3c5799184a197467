"""Ledger/Journal rollback invariants under partial placement failure.

A failed placement attempt must restore the ledger *exactly*: per-server
used slots, per-uplink reserved bandwidth in both directions, the
incremental free-slot subtree aggregates, and the overcommit set.  The
one ``rollback`` loop is run against both storages: the classic ledger
and a 4-plane temporal ledger under a non-flat profile.
"""

from __future__ import annotations

import pytest

from repro.core.tag import Tag
from repro.errors import ReproError
from repro.placement.state import TenantAllocation
from repro.temporal.admission import TemporalLedger
from repro.temporal.profile import TemporalProfile
from repro.topology.ledger import Ledger, ReservationLedger
from tests.fabrics import single_rack
from tests.topology.ledger_views import plane_matrices


def snapshot(ledger: ReservationLedger):
    """Full observable ledger state via public APIs only."""
    topology = ledger.topology
    planes = ()
    if isinstance(ledger, TemporalLedger):
        planes = tuple(matrix.tobytes() for matrix in plane_matrices(ledger))
    return (
        planes,
        {s.node_id: ledger.used_slots(s) for s in topology.servers},
        {
            n.node_id: (ledger.reserved_up(n), ledger.reserved_down(n))
            for n in topology.nodes
        },
        {n.node_id: ledger.free_slots(n) for n in topology.nodes},
        ledger.has_overcommit(),
    )


@pytest.fixture
def rack():
    return single_rack(servers=4, slots_per_server=2, nic_mbps=10.0)


@pytest.fixture(params=["classic", "temporal"])
def ledger(request, rack) -> ReservationLedger:
    if request.param == "classic":
        return Ledger(rack)
    planes = TemporalLedger(rack, 4)
    planes.set_ratios(TemporalProfile((1.0, 0.5, 0.25, 0.75)))
    return planes


def two_tier_tag(bandwidth: float = 4.0) -> Tag:
    tag = Tag("app")
    tag.add_component("web", 2)
    tag.add_component("db", 2)
    tag.add_undirected_edge("web", "db", bandwidth, bandwidth)
    return tag


class TestRollbackRestoresExactly:
    def test_rollback_to_start_restores_everything(self, ledger):
        allocation = TenantAllocation(two_tier_tag(), ledger)
        servers = ledger.topology.servers
        root = ledger.topology.root
        before = snapshot(ledger)

        savepoint = allocation.savepoint()
        assert allocation.place(servers[0].node_id, "web", 2, root.node_id)
        assert allocation.place(servers[1].node_id, "db", 1, root.node_id)
        assert allocation.place(servers[2].node_id, "db", 1, root.node_id)
        assert snapshot(ledger) != before  # something actually changed

        allocation.rollback(savepoint)
        assert snapshot(ledger) == before
        assert allocation.placed_vms == 0
        assert allocation.remaining_tiers().get("web", 0) == 2
        assert allocation.remaining_tiers().get("db", 0) == 2

    def test_rollback_to_midpoint_restores_midpoint(self, ledger):
        allocation = TenantAllocation(two_tier_tag(), ledger)
        servers = ledger.topology.servers
        root = ledger.topology.root

        assert allocation.place(servers[0].node_id, "web", 2, root.node_id)
        midpoint_state = snapshot(ledger)
        midpoint = allocation.savepoint()

        assert allocation.place(servers[1].node_id, "db", 2, root.node_id)
        allocation.rollback(midpoint)
        assert snapshot(ledger) == midpoint_state
        assert allocation.placed_vms == 2
        assert allocation.remaining_tiers().get("db", 0) == 2

    def test_failed_slot_reservation_has_no_effect(self, ledger):
        allocation = TenantAllocation(two_tier_tag(), ledger)
        servers = ledger.topology.servers
        root = ledger.topology.root

        assert allocation.place(servers[0].node_id, "web", 2, root.node_id)
        placed_state = snapshot(ledger)
        # Server 0's two slots are taken: this must fail atomically.
        assert not allocation.place(servers[0].node_id, "db", 2, root.node_id)
        assert snapshot(ledger) == placed_state
        assert allocation.remaining_tiers().get("db", 0) == 2

    def test_failed_finalize_then_rollback_restores_start(self, ledger):
        # 50 Mbps of cross-server demand through 10 Mbps NICs: the
        # placement overcommits, finalize refuses, rollback must restore
        # the pristine ledger.
        allocation = TenantAllocation(two_tier_tag(bandwidth=50.0), ledger)
        servers = ledger.topology.servers
        root = ledger.topology.root
        before = snapshot(ledger)

        savepoint = allocation.savepoint()
        assert allocation.place(servers[0].node_id, "web", 2, root.node_id)
        assert allocation.place(servers[1].node_id, "db", 2, root.node_id)
        assert allocation.is_complete
        assert not allocation.finalize(root.node_id)
        assert not allocation.finalized

        allocation.rollback(savepoint)
        assert snapshot(ledger) == before
        assert not ledger.has_overcommit()

    def test_release_after_successful_placement_restores_start(self, ledger):
        allocation = TenantAllocation(two_tier_tag(bandwidth=2.0), ledger)
        servers = ledger.topology.servers
        root = ledger.topology.root
        before = snapshot(ledger)

        assert allocation.place(servers[0].node_id, "web", 2, root.node_id)
        assert allocation.place(servers[1].node_id, "db", 2, root.node_id)
        assert allocation.finalize(root.node_id)
        allocation.release()
        assert snapshot(ledger) == before

    def test_rollback_survives_many_interleavings(self, ledger):
        """Two tenants: one commits, one rolls back; only the committed
        tenant's reservations remain."""
        committed = TenantAllocation(two_tier_tag(bandwidth=2.0), ledger)
        servers = ledger.topology.servers
        root = ledger.topology.root

        assert committed.place(servers[0].node_id, "web", 2, root.node_id)
        assert committed.place(servers[1].node_id, "db", 2, root.node_id)
        assert committed.finalize(root.node_id)
        committed_state = snapshot(ledger)

        doomed = TenantAllocation(two_tier_tag(bandwidth=3.0), ledger)
        savepoint = doomed.savepoint()
        assert doomed.place(servers[2].node_id, "web", 2, root.node_id)
        assert doomed.place(servers[3].node_id, "db", 2, root.node_id)
        doomed.rollback(savepoint)
        assert snapshot(ledger) == committed_state


class TestGuards:
    def test_placing_into_finalized_allocation_raises(self, ledger):
        allocation = TenantAllocation(two_tier_tag(bandwidth=1.0), ledger)
        servers = ledger.topology.servers
        root = ledger.topology.root
        assert allocation.place(servers[0].node_id, "web", 2, root.node_id)
        assert allocation.place(servers[1].node_id, "db", 2, root.node_id)
        assert allocation.finalize(root.node_id)
        with pytest.raises(ReproError):
            allocation.place(servers[2].node_id, "web", 1, root.node_id)

    def test_overplacing_a_tier_raises(self, ledger):
        allocation = TenantAllocation(two_tier_tag(), ledger)
        servers = ledger.topology.servers
        root = ledger.topology.root
        with pytest.raises(ReproError, match="only"):
            allocation.place(servers[0].node_id, "web", 5, root.node_id)
