"""Unit tests for FailureMask semantics and pruned_topology itself."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Journal, Ledger
from tests.failures.pruned_topology import pruned_topology

SPEC = DatacenterSpec(
    servers_per_rack=3, racks_per_pod=2, pods=2, slots_per_server=4
)


def _named(topology):
    return {node.name: node.node_id for node in topology.nodes}


@pytest.fixture
def ledger():
    topology = three_level_tree(SPEC)
    topology.flat
    return Ledger(topology)


def test_mask_attaches_once_and_swaps_capacity_column(ledger):
    flat = ledger.flat
    assert ledger.slot_cap is flat.slots  # untouched alias before attach
    mask = ledger.ensure_failure_mask()
    assert ledger.ensure_failure_mask() is mask  # idempotent
    assert ledger.slot_cap is not flat.slots
    assert list(ledger.slot_cap) == list(flat.slots)
    assert ledger.mask_version() == 0


def test_server_failure_zeroes_capacity_and_free(ledger):
    mask = ledger.ensure_failure_mask()
    ids = _named(ledger.topology)
    server = ids["srv-0-0-0"]
    rack = ids["tor-0-0"]
    root = ledger.flat.root_id
    free_before = ledger.free_slots_id(root)
    downed = mask.fail(server, Journal())
    assert downed == (server,)
    assert ledger.slot_cap[server] == 0
    assert mask.is_down(server) and server in mask.failed
    assert ledger.free_slots_id(root) == free_before - 4
    assert ledger.alive_subtree_slots_id(rack) == 2 * 4
    assert ledger.alive_subtree_slots_id(root) == ledger.flat.subtree_slots[root] - 4
    assert not ledger.reserve_slots(
        server, 1, Journal()
    )


def test_switch_failure_downs_whole_span(ledger):
    mask = ledger.ensure_failure_mask()
    ids = _named(ledger.topology)
    downed = mask.fail(ids["tor-1-0"], Journal())
    assert len(downed) == 3
    assert set(mask.down_servers()) == set(downed)
    assert mask.failed == {ids["tor-1-0"]}
    # Servers under the dead ToR are covered but carry no explicit mark.
    assert not mask.failed & set(downed)


def test_fail_is_idempotent_and_versions(ledger):
    mask = ledger.ensure_failure_mask()
    server = _named(ledger.topology)["srv-0-1-1"]
    journal = Journal()
    assert mask.fail(server, journal) == (server,)
    version = mask.version
    assert mask.fail(server, journal) == ()  # second mark: no-op
    assert mask.version == version
    assert len(journal.ops) == 1
    assert ledger.mask_version() == version


def test_fail_link_root_raises(ledger):
    mask = ledger.ensure_failure_mask()
    with pytest.raises(TopologyError):
        mask.fail_link(ledger.flat.root_id, Journal())


def test_undoing_a_mark_respects_outside_marks(ledger):
    mask = ledger.ensure_failure_mask()
    flat = ledger.flat
    ids = _named(ledger.topology)
    agg, rack = ids["agg-0"], ids["tor-0-1"]
    journal = Journal()
    mask.fail(agg, journal)  # downs both racks of pod 0
    savepoint = journal.savepoint()
    assert mask.fail(rack, journal) == ()  # already covered: nothing new
    # Undoing the rack's mark clears it, but the agg still covers it.
    ledger.rollback(journal, savepoint)
    assert mask.failed == {agg}
    lo, hi = flat.server_span[rack]
    assert all(mask.is_down(s) for s in flat.server_order[lo:hi])
    # Undoing the agg's mark brings everything under it back.
    ledger.rollback(journal)
    assert not mask.failed and mask.down_servers() == ()
    assert list(ledger.slot_cap) == list(flat.slots)
    assert mask.masked_subtree == [0] * flat.size


def test_rollback_restores_mask_and_slot_state(ledger):
    topology = ledger.topology
    mask = ledger.ensure_failure_mask()
    ids = _named(topology)
    committed = Journal()
    server = topology.flat.node_of[ids["srv-0-0-0"]]
    assert ledger.reserve_slots(server.node_id, 2, committed)

    def snapshot():
        return (
            list(ledger._used_slots),
            list(ledger._free_subtree),
            list(ledger.slot_cap),
            list(mask.cover),
            list(mask.masked_subtree),
            set(mask.failed),
        )

    before = snapshot()
    journal = Journal()
    mask.fail(ids["tor-0-0"], journal)  # downs the reserved server too
    other = topology.flat.node_of[ids["srv-1-0-0"]]
    assert ledger.reserve_slots(other.node_id, 3, journal)
    mask.fail(ids["srv-1-1-2"], journal)
    assert snapshot() != before
    ledger.rollback(journal)
    assert snapshot() == before
    # Version never rolls back: memoized consumers must recompute.
    assert mask.version > 0


def test_release_on_down_server_keeps_aggregates_consistent(ledger):
    """A victim's slot release on a covered server must not leak free."""
    topology = ledger.topology
    ids = _named(topology)
    server = topology.flat.node_of[ids["srv-0-0-1"]]
    root = topology.flat.root_id
    assert ledger.reserve_slots(server.node_id, 3, Journal())
    mask = ledger.ensure_failure_mask()
    journal = Journal()
    mask.fail(ids["srv-0-0-1"], journal)
    free_down = ledger.free_slots_id(root)
    ledger.release_slots(server.node_id, 3)  # victim departs while server is down
    assert ledger.free_slots_id(root) == free_down  # down: contributes 0
    assert ledger.used_slots(server) == 0
    ledger.rollback(journal)
    # Back up with used=0: the full capacity returns to the aggregates.
    assert ledger.free_slots_id(root) == free_down + 4
    assert ledger.slot_cap[server.node_id] == 4


# ----------------------------------------------------------------------
# pruned_topology
# ----------------------------------------------------------------------


def test_pruned_drops_subtrees_and_childless_switches():
    topology = three_level_tree(SPEC)
    ids = _named(topology)
    # Fail every server of rack tor-1-1 individually: the empty ToR must
    # be pruned away with them.
    failed = [ids[f"srv-1-1-{i}"] for i in range(3)] + [ids["tor-0-0"]]
    pruned = pruned_topology(topology, failed)
    names = {node.name for node in pruned.nodes}
    assert "tor-1-1" not in names and "tor-0-0" not in names
    assert "srv-0-0-0" not in names
    assert "tor-0-1" in names and "srv-1-0-2" in names
    assert len(pruned.servers) == 6


def test_pruned_assigns_dense_dfs_ids_and_preserves_attributes():
    topology = three_level_tree(SPEC)
    ids = _named(topology)
    pruned = pruned_topology(topology, [ids["tor-0-0"]])
    got = sorted(node.node_id for node in pruned.nodes)
    assert got == list(range(len(got)))
    source = {node.name: node for node in topology.nodes}
    for node in pruned.nodes:
        original = source[node.name]
        assert node.level == original.level
        assert node.slots == original.slots
        assert node.uplink_up == original.uplink_up
        assert node.uplink_down == original.uplink_down
        assert node.nominal_up == original.nominal_up


def test_pruned_requires_a_survivor():
    topology = three_level_tree(SPEC)
    with pytest.raises(TopologyError):
        pruned_topology(topology, [topology.root.node_id])
