"""Property tests for the incremental candidate index.

The index's contract is that every lookup returns exactly what the
full scan over the level (or rack) returns, no matter what interleaving
of reservations, releases, failures, restores and journal rollbacks
preceded it.  These tests churn a ledger randomly and compare each
lookup against :class:`ScanCandidates`, the full-scan reference.
"""

from __future__ import annotations

import random

import pytest

from repro.placement.candidates import CandidateIndex
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Journal, Ledger
from tests.placement.scan_candidates import ScanCandidates


@pytest.fixture
def churn_setup():
    spec = DatacenterSpec(
        servers_per_rack=4,
        racks_per_pod=3,
        pods=2,
        slots_per_server=4,
        server_uplink=1000.0,
    )
    topology = three_level_tree(spec)
    ledger = Ledger(topology)
    index = ledger.ensure_candidate_index()
    return topology, ledger, index


def random_churn(ledger, rng, steps, journal, held=None, releases=True):
    """Random reserves/releases; returns per-server held counts.

    When a caller plans to roll the journal back it must pass
    ``releases=False`` — releasing a reservation and then rolling it back
    would double-undo it, which no placer ever does.
    """
    if held is None:
        held = {}
    servers = list(ledger.topology.servers)
    for _ in range(steps):
        server = rng.choice(servers)
        if releases and held.get(server.node_id) and rng.random() < 0.4:
            ledger.release_slots(server, 1)
            held[server.node_id] -= 1
            if not held[server.node_id]:
                del held[server.node_id]
        else:
            if ledger.reserve_slots(server, 1, journal):
                held[server.node_id] = held.get(server.node_id, 0) + 1
    return held


class TestLevelLookups:
    def test_best_fit_matches_naive_under_churn(self, churn_setup):
        topology, ledger, index = churn_setup
        scan = ScanCandidates(ledger)
        rng = random.Random(7)
        journal = Journal()
        for _ in range(30):
            random_churn(ledger, rng, 12, journal)
            for level in range(topology.num_levels):
                for size in (1, 2, 4, 9, 30):
                    assert index.best_fit(level, size) == scan.best_fit(
                        level, size
                    ), f"best_fit diverged at level {level} size {size}"

    def test_accept_filter_skips_in_scan_order(self, churn_setup):
        topology, ledger, index = churn_setup
        rng = random.Random(13)
        journal = Journal()
        random_churn(ledger, rng, 40, journal)
        scan = ScanCandidates(ledger)
        # An arbitrary predicate over node ids: the filtered lookup must
        # equal the full scan restricted by the same predicate.
        accept = lambda node_id: node_id % 3 != 0  # noqa: E731
        for level in range(topology.num_levels):
            assert index.best_fit(level, 2, accept) == scan.best_fit(
                level, 2, accept
            )

    def test_exhausted_level_returns_none(self, churn_setup):
        topology, ledger, index = churn_setup
        journal = Journal()
        for server in topology.servers:
            assert ledger.reserve_slots(server, server.slots, journal)
        for level in range(topology.num_levels):
            assert index.best_fit(level, 1) is None


class TestDirtyBits:
    def test_touch_marks_exactly_the_root_path(self, churn_setup):
        topology, ledger, index = churn_setup
        # Prime every level so the lists exist and dirty sets are empty.
        for level in range(topology.num_levels):
            index.best_fit(level, 1)
        assert index.pending_dirty() == {}
        server = topology.servers[5]
        journal = Journal()
        ledger.reserve_slots(server, 1, journal)
        dirty = index.pending_dirty()
        expected = {}
        for node in topology.ancestors(server, include_self=True):
            expected.setdefault(node.level, set()).add(node.node_id)
        assert dirty == {
            level: frozenset(ids) for level, ids in expected.items()
        }

    def test_lookup_repairs_only_its_level(self, churn_setup):
        topology, ledger, index = churn_setup
        for level in range(topology.num_levels):
            index.best_fit(level, 1)
        journal = Journal()
        ledger.reserve_slots(topology.servers[0], 2, journal)
        index.best_fit(0, 1)
        dirty = index.pending_dirty()
        assert 0 not in dirty
        assert set(dirty) == set(range(1, topology.num_levels))

    def test_rollback_restores_index_state(self, churn_setup):
        topology, ledger, index = churn_setup
        rng = random.Random(17)
        journal = Journal()
        random_churn(ledger, rng, 25, journal)
        for level in range(topology.num_levels):
            index.best_fit(level, 1)
        baseline = {
            level: list(index._level_entries[level])
            for level in range(topology.num_levels)
        }
        savepoint = len(journal.ops)
        # A doomed multi-step placement: reserve on several servers, then
        # roll the journal back to the savepoint (the placer backtrack
        # path).  The repaired index must equal the pre-attempt state.
        for server in topology.servers[:6]:
            ledger.reserve_slots(server, 1, journal)
        ledger.rollback(journal, savepoint)
        index.verify()
        for level in range(topology.num_levels):
            index.best_fit(level, 1)  # force repair
            assert index._level_entries[level] == baseline[level]

    def test_verify_passes_after_heavy_churn(self, churn_setup):
        topology, ledger, index = churn_setup
        rng = random.Random(19)
        journal = Journal()
        held = {}
        for _ in range(10):
            savepoint = len(journal.ops)
            if rng.random() < 0.5:
                # A doomed attempt: reserve-only churn, fully undone.
                random_churn(ledger, rng, 20, journal, releases=False)
                ledger.rollback(journal, savepoint)
            else:
                random_churn(ledger, rng, 20, journal, held)
            for level in range(topology.num_levels):
                index.best_fit(level, 1)
        index.verify()


class TestRackOrder:
    def test_rack_candidates_match_legacy_rebuild(self, churn_setup):
        topology, ledger, index = churn_setup
        index.track_racks()
        scan = ScanCandidates(ledger)
        mask = ledger.ensure_failure_mask()
        rng = random.Random(23)
        journal = Journal()
        racks = topology.level_nodes(1)
        # Servers and racks that a fail/restore step may flip.
        domains = [node.node_id for node in topology.servers] + [
            rack.node_id for rack in racks
        ]
        masked_rounds = 0
        for _ in range(30):
            random_churn(ledger, rng, 10, journal)
            # Interleaved failures and restores: a down server keeps its
            # ``used`` but drops to zero capacity, so it must leave the
            # candidate list and come back on restore.
            for _ in range(2):
                node_id = rng.choice(domains)
                if node_id in mask.failed_nodes():
                    mask.restore(node_id, Journal())
                else:
                    mask.fail(node_id, Journal())
            masked_rounds += bool(mask.down_servers())
            for rack in racks:
                assert index.rack_candidates(rack.node_id) == scan.rack_candidates(
                    rack.node_id
                ), f"rack {rack.name} candidate order diverged"
        assert masked_rounds > 0

    def test_full_servers_drop_out_and_return(self, churn_setup):
        topology, ledger, index = churn_setup
        index.track_racks()
        server = topology.servers[0]
        rack = server.parent
        journal = Journal()
        ledger.reserve_slots(server, server.slots, journal)
        ids = [entry[2] for entry in index.rack_candidates(rack.node_id)]
        assert server.node_id not in ids
        ledger.release_slots(server, 1)
        ids = [entry[2] for entry in index.rack_candidates(rack.node_id)]
        assert ids[0] == server.node_id  # most-used sorts first

    def test_track_racks_is_idempotent(self, churn_setup):
        topology, ledger, index = churn_setup
        index.track_racks()
        before = list(index._enum_pos)
        index.track_racks()
        assert index._enum_pos == before


class TestLedgerWiring:
    def test_ensure_candidate_index_is_cached(self, churn_setup):
        _, ledger, index = churn_setup
        assert ledger.ensure_candidate_index() is index
        assert isinstance(index, CandidateIndex)

    def test_unattached_ledger_has_no_index(self):
        topology = three_level_tree(DatacenterSpec(pods=2))
        ledger = Ledger(topology)
        assert ledger._candidate_index is None
