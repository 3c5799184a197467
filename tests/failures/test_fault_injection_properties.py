"""Randomized fault injection: mask/pruned equivalence as a property.

Hypothesis drives random (topology-sized) failure sets, placer choices,
and admission streams through three invariants:

* **equivalence** — placement under a random failure mask is identical,
  by node name, to placement on the physically pruned topology;
* **rollback** — any interleaving of fail / restore / reserve ops in one
  journal rolls back to the exact pre-journal ledger + mask state, with
  the candidate index still verifying against a from-scratch rebuild;
* **recovery** — after failures, victim departure, re-admission and full
  restore, no allocation holds a slot on a down server and the ledger's
  free-subtree aggregates match a from-scratch recount.
"""

from __future__ import annotations

import math
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.placement.base import Placement
from repro.simulation.arrivals import Arrival
from repro.simulation.runner import make_placer
from repro.simulation.service import ServiceLoop
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.failures import pruned_topology
from repro.topology.ledger import Journal, Ledger
from repro.workloads.scaling import scale_pool
from repro.workloads.synthetic import synthetic_pool
from tests.placement.scan_candidates import scan_unless_indexed

SPEC = DatacenterSpec(
    servers_per_rack=3,
    racks_per_pod=2,
    pods=2,
    slots_per_server=4,
    server_uplink=1000.0,
    tor_oversub=4.0,
    agg_oversub=2.0,
)
TOPOLOGY = three_level_tree(SPEC)
FLAT = TOPOLOGY.flat
POOL = scale_pool(list(synthetic_pool()), 0.5)
NON_ROOT = tuple(
    node.node_id for node in TOPOLOGY.nodes if node.node_id != FLAT.root_id
)

failure_sets = st.lists(
    st.sampled_from(NON_ROOT), min_size=1, max_size=4, unique=True
)


def _survivors(failed):
    covered = set()
    for node_id in failed:
        lo, hi = FLAT.server_span[node_id]
        covered.update(FLAT.server_order[lo:hi])
    return [s for s in FLAT.server_order if s not in covered]


def _stream(topology, placer_name, use_index, order, failed=()):
    """Arrival ``i`` leaves just before arrival ``3 i + 3``: one
    departure per three arrivals, oldest first."""
    ledger = Ledger(topology)
    if failed:
        mask = ledger.ensure_failure_mask()
        journal = Journal()
        for node_id in failed:
            mask.fail(node_id, journal)
    placer = make_placer(placer_name, ledger)
    outcomes = []
    loop = ServiceLoop(
        ledger,
        placer,
        POOL,
        collect_utilization=False,
        on_decision=lambda tag, allocation: outcomes.append(allocation is not None),
    )
    with scan_unless_indexed(placer, use_index):
        loop.run(
            Arrival(float(i), tag_index, 2.0 * i + 2.5)
            for i, tag_index in enumerate(order)
        )
    layouts = [
        sorted(
            (server.name, tuple(sorted(counts.items())))
            for server, counts in allocation.iter_server_placements()
        )
        for allocation in loop.live()
    ]
    return outcomes, layouts


@given(
    failed=failure_sets,
    placer_name=st.sampled_from(["cm", "ovoc", "secondnet"]),
    use_index=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_random_failures_match_pruned(failed, placer_name, use_index, seed):
    assume(_survivors(failed))
    rng = random.Random(seed)
    order = [rng.randrange(len(POOL)) for _ in range(16)]
    pruned = pruned_topology(TOPOLOGY, failed)
    masked = _stream(TOPOLOGY, placer_name, use_index, order, failed=failed)
    reference = _stream(pruned, placer_name, use_index, order)
    assert masked == reference


def _snapshot(ledger):
    mask = ledger.failure_mask
    return (
        list(ledger._used_slots),
        list(ledger._free_subtree),
        list(ledger._used_up),
        list(ledger._used_down),
        list(ledger.slot_cap),
        list(mask.cover),
        list(mask.masked_subtree),
        set(mask.failed),
    )


@st.composite
def op_sequences(draw):
    ops = []
    for _ in range(draw(st.integers(1, 20))):
        kind = draw(st.sampled_from(["fail", "restore", "reserve"]))
        if kind == "reserve":
            ops.append(("reserve", draw(st.sampled_from(FLAT.server_order))))
        else:
            ops.append((kind, draw(st.sampled_from(NON_ROOT))))
    return ops


@given(ops=op_sequences(), use_index=st.booleans(), preload=st.integers(0, 5))
@settings(max_examples=50, deadline=None)
def test_rollback_restores_mask_and_ledger(ops, use_index, preload):
    ledger = Ledger(TOPOLOGY)
    mask = ledger.ensure_failure_mask()
    if use_index:
        index = ledger.ensure_candidate_index()
        index.track_racks()
        index._level_ready(0)  # force the server-level list to build
        for rack_id in FLAT.level_ids[1]:
            index.rack_candidates(rack_id)
    committed = Journal()
    for server_id in FLAT.server_order[:preload]:
        ledger.reserve_slots(FLAT.node_of[server_id], 1, committed)
    before = _snapshot(ledger)
    journal = Journal()
    for op in ops:
        if op[0] == "fail":
            mask.fail(op[1], journal)
        elif op[0] == "restore":
            mask.restore(op[1], journal)
        else:
            ledger.reserve_slots(FLAT.node_of[op[1]], 1, journal)
    ledger.rollback(journal)
    assert _snapshot(ledger) == before
    assert journal.ops == []
    if use_index:
        ledger._candidate_index.verify()
        ledger._candidate_index.verify_racks()


def _recount_free(ledger):
    """From-scratch free-subtree recount: down servers contribute 0."""
    mask = ledger.failure_mask
    recount = [0] * FLAT.size
    for server_id in FLAT.server_order:
        if mask is not None and mask.is_down(server_id):
            continue
        contribution = FLAT.slots[server_id] - ledger._used_slots[server_id]
        for ancestor_id in FLAT.ancestors[server_id]:
            recount[ancestor_id] += contribution
    return recount


@given(
    failed=failure_sets,
    use_index=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_recovery_leaves_no_dangling_allocations(failed, use_index, seed):
    assume(_survivors(failed))
    rng = random.Random(seed)
    ledger = Ledger(TOPOLOGY)
    placer = make_placer("cm", ledger)
    with scan_unless_indexed(placer, use_index):
        loop = ServiceLoop(ledger, placer, POOL, collect_utilization=False)
        loop.run(Arrival(0.0, rng.randrange(len(POOL)), math.inf) for _ in range(12))
        mask = ledger.ensure_failure_mask()
        journal = Journal()
        for node_id in failed:
            mask.fail(node_id, journal)
        live, victims = [], []
        for allocation in loop.live():
            hit = any(
                mask.is_down(server.node_id)
                for server, _ in allocation.iter_server_placements()
            )
            (victims if hit else live).append(allocation)
        for allocation in victims:
            allocation.release()
        for allocation in victims:
            result = placer.place(allocation.tag)
            if isinstance(result, Placement):
                live.append(result.allocation)
    # Invariant 1: nothing lives on a down server after recovery.
    for allocation in live:
        for server, _ in allocation.iter_server_placements():
            assert not mask.is_down(server.node_id)
    # Invariant 2: the incremental aggregates match a full recount,
    # before and after restoring every failure.
    assert ledger._free_subtree == _recount_free(ledger)
    for node_id in sorted(mask.failed_nodes()):
        mask.restore(node_id, Journal())
    assert mask.down_servers() == ()
    assert list(ledger.slot_cap) == list(FLAT.slots)
    assert ledger._free_subtree == _recount_free(ledger)
    if use_index:
        ledger._candidate_index.verify()
        ledger._candidate_index.verify_racks()
