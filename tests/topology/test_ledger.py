"""Tests for the reservation ledger: journalling, rollback, overcommit."""

from __future__ import annotations

import pytest

from repro.errors import LedgerError
from repro.topology.ledger import Journal, Ledger
from tests.fabrics import level_nodes, servers_under
from tests.topology.ledger_views import overcommitted_nodes


@pytest.fixture
def ledger(small_datacenter):
    return Ledger(small_datacenter)


class TestSlots:
    def test_reserve_and_release(self, ledger, small_datacenter):
        server = small_datacenter.servers[0]
        journal = Journal()
        assert ledger.reserve_slots(server.node_id, 3, journal)
        assert ledger.used_slots(server) == 3
        assert ledger.free_slots(server) == 1
        assert ledger.free_slots(small_datacenter.root) == 512 - 3
        ledger.release_slots(server.node_id, 3)
        assert ledger.free_slots(small_datacenter.root) == 512

    def test_over_reservation_refused(self, ledger, small_datacenter):
        server = small_datacenter.servers[0]
        journal = Journal()
        assert not ledger.reserve_slots(server.node_id, 5, journal)
        assert ledger.used_slots(server) == 0
        assert journal.ops == []

    def test_release_more_than_reserved_raises(self, ledger, small_datacenter):
        with pytest.raises(LedgerError):
            ledger.release_slots(small_datacenter.servers[0].node_id, 1)

    def test_nonpositive_counts_raise(self, ledger, small_datacenter):
        server = small_datacenter.servers[0]
        with pytest.raises(LedgerError):
            ledger.reserve_slots(server.node_id, 0, Journal())
        with pytest.raises(LedgerError):
            ledger.release_slots(server.node_id, -1)

    def test_subtree_aggregates(self, ledger, small_datacenter):
        tor = level_nodes(small_datacenter, 1)[0]
        server = next(iter(servers_under(small_datacenter, tor)))
        ledger.reserve_slots(server.node_id, 2, Journal())
        assert ledger.free_slots(tor) == 62


class TestBandwidth:
    def test_adjust_and_release(self, ledger, small_datacenter):
        server = small_datacenter.servers[0]
        journal = Journal()
        ledger.adjust_uplink_id(server.node_id, 600.0, 400.0, journal)
        assert ledger.available_up_id(server.node_id) == pytest.approx(400.0)
        assert ledger.available_down_id(server.node_id) == pytest.approx(600.0)
        ledger.release_uplink_id(server.node_id, 600.0, 400.0)
        assert ledger.available_up_id(server.node_id) == pytest.approx(1000.0)

    def test_deferred_overcommit_tracking(self, ledger, small_datacenter):
        server = small_datacenter.servers[0]
        journal = Journal()
        ledger.adjust_uplink_id(server.node_id, 1500.0, 0.0, journal)
        assert ledger.has_overcommit()
        assert server.node_id in overcommitted_nodes(ledger)
        # Coming back under capacity clears the flag.
        ledger.adjust_uplink_id(server.node_id, -700.0, 0.0, journal)
        assert not ledger.has_overcommit()

    def test_rollback_restores_overcommit_state(self, ledger, small_datacenter):
        server = small_datacenter.servers[0]
        journal = Journal()
        ledger.adjust_uplink_id(server.node_id, 1500.0, 0.0, journal)
        ledger.rollback(journal)
        assert not ledger.has_overcommit()
        assert ledger.available_up_id(server.node_id) == pytest.approx(1000.0)

    def test_negative_reservation_raises(self, ledger, small_datacenter):
        with pytest.raises(LedgerError):
            ledger.adjust_uplink_id(small_datacenter.servers[0].node_id, -5.0, 0.0, Journal())

    def test_release_more_than_reserved_raises(self, ledger, small_datacenter):
        with pytest.raises(LedgerError):
            ledger.release_uplink_id(small_datacenter.servers[0].node_id, 5.0, 0.0)

    def test_root_is_unconstrained(self, ledger, small_datacenter):
        import math

        assert math.isinf(ledger.available_up_id(small_datacenter.root.node_id))
        journal = Journal()
        ledger.adjust_uplink_id(small_datacenter.root.node_id, 1e12, 1e12, journal)
        assert not ledger.has_overcommit()
        assert journal.ops == []

    def test_reserved_at_level(self, ledger, small_datacenter):
        journal = Journal()
        for server in small_datacenter.servers[:4]:
            ledger.adjust_uplink_id(server.node_id, 100.0, 50.0, journal)
        assert ledger.reserved_at_level(0) == pytest.approx(400.0)
        assert ledger.reserved_at_level(1) == pytest.approx(0.0)


class TestRollback:
    def test_partial_rollback_to_savepoint(self, ledger, small_datacenter):
        server_a, server_b = small_datacenter.servers[:2]
        journal = Journal()
        ledger.reserve_slots(server_a.node_id, 2, journal)
        savepoint = journal.savepoint()
        ledger.reserve_slots(server_b.node_id, 3, journal)
        ledger.adjust_uplink_id(server_b.node_id, 100.0, 100.0, journal)
        ledger.rollback(journal, savepoint)
        assert ledger.used_slots(server_a) == 2
        assert ledger.used_slots(server_b) == 0
        assert ledger.available_up_id(server_b.node_id) == pytest.approx(1000.0)

    def test_full_rollback_restores_everything(self, ledger, small_datacenter):
        journal = Journal()
        for server in small_datacenter.servers[:8]:
            ledger.reserve_slots(server.node_id, 1, journal)
            ledger.adjust_uplink_id(server.node_id, 10.0, 20.0, journal)
        ledger.rollback(journal)
        assert ledger.free_slots(small_datacenter.root) == 512
        assert ledger.reserved_at_level(0) == 0.0
        assert journal.ops == []

    def test_a_savepoint_beyond_the_journal_raises_and_undoes_nothing(
        self, ledger, small_datacenter
    ):
        server_a, server_b = small_datacenter.servers[:2]
        journal = Journal()
        ledger.reserve_slots(server_a.node_id, 2, journal)
        ledger.adjust_uplink_id(server_a.node_id, 100.0, 50.0, journal)
        savepoint = journal.savepoint()
        journal.ops.clear()  # the attempt commits: its log is dropped
        ledger.reserve_slots(server_b.node_id, 1, journal)  # the next attempt
        with pytest.raises(LedgerError, match="beyond"):
            ledger.rollback(journal, savepoint)
        assert len(journal.ops) == 1
        assert ledger.used_slots(server_a) == 2
        assert ledger.used_slots(server_b) == 1
        assert ledger.available_up_id(server_a.node_id) == pytest.approx(900.0)
