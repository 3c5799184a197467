"""Property-based tests for the ledger: rollback is an exact inverse."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Journal, Ledger

SPEC = DatacenterSpec(
    servers_per_rack=4, racks_per_pod=2, pods=2, slots_per_server=4
)
TOPOLOGY = three_level_tree(SPEC)
NUM_SERVERS = len(TOPOLOGY.servers)


def _snapshot(ledger: Ledger):
    slots = tuple(ledger.used_slots(s) for s in TOPOLOGY.servers)
    bandwidth = tuple(
        (ledger.reserved_up(n), ledger.reserved_down(n))
        for n in TOPOLOGY.nodes
        if not n.is_root
    )
    free = tuple(ledger.free_slots(n) for n in TOPOLOGY.nodes)
    return slots, bandwidth, free, ledger.has_overcommit()


@st.composite
def op_sequences(draw):
    ops = []
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(["slots", "bw"]))
        server = draw(st.integers(0, NUM_SERVERS - 1))
        if kind == "slots":
            ops.append(("slots", server, draw(st.integers(1, 4))))
        else:
            ops.append(
                (
                    "bw",
                    server,
                    draw(st.floats(0.0, 20000.0, allow_nan=False)),
                    draw(st.floats(0.0, 20000.0, allow_nan=False)),
                )
            )
    return ops


@given(op_sequences())
@settings(max_examples=100, deadline=None)
def test_rollback_restores_exact_state(ops):
    ledger = Ledger(TOPOLOGY)
    journal = Journal()
    # Pre-seed some committed state that must survive the rollback.
    ledger.reserve_slots(TOPOLOGY.servers[0].node_id, 2, Journal())
    ledger.adjust_uplink_id(TOPOLOGY.servers[0].node_id, 100.0, 50.0, Journal())
    before = _snapshot(ledger)
    for op in ops:
        if op[0] == "slots":
            ledger.reserve_slots(TOPOLOGY.servers[op[1]].node_id, op[2], journal)
        else:
            ledger.adjust_uplink_id(
                TOPOLOGY.servers[op[1]].node_id, op[2], op[3], journal
            )
    ledger.rollback(journal)
    assert _snapshot(ledger) == before


@given(op_sequences(), st.integers(0, 25))
@settings(max_examples=50, deadline=None)
def test_partial_rollback_to_any_savepoint(ops, cut):
    ledger = Ledger(TOPOLOGY)
    journal = Journal()
    snapshots = [_snapshot(ledger)]
    savepoints = [journal.savepoint()]
    for op in ops:
        if op[0] == "slots":
            ledger.reserve_slots(TOPOLOGY.servers[op[1]].node_id, op[2], journal)
        else:
            ledger.adjust_uplink_id(
                TOPOLOGY.servers[op[1]].node_id, op[2], op[3], journal
            )
        snapshots.append(_snapshot(ledger))
        savepoints.append(journal.savepoint())
    cut = min(cut, len(ops))
    ledger.rollback(journal, savepoints[cut])
    assert _snapshot(ledger) == snapshots[cut]
