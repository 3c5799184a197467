"""Randomized equivalence: flat array-backed ledger vs the seed semantics.

``ReferenceLedger`` below is a line-for-line reimplementation of the
pre-refactor ledger — per-node dicts, dataclass journal ops, parent
-pointer walks over ``Node`` objects.  Two property tests drive it in
lockstep with the live :class:`repro.topology.ledger.Ledger`:

* a raw op fuzzer (reserve/release slots, enforced and deferred uplink
  adjustments, releases, savepoints and rollbacks) asserting the full
  observable state matches after *every* operation, and
* a randomized arrival/departure placement simulation through the real
  CloudMirror placer, with every ledger mutation mirrored onto the
  reference and cross-checked — the rollback-heavy admission paths
  included — plus a determinism check that the mirrored run's
  accept/reject sequence equals an unmirrored re-run's.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import pytest

from repro.core.tag import Tag
from repro.errors import LedgerError
from repro.placement.base import Placement
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.topology.builder import DatacenterSpec, single_rack, three_level_tree
from repro.topology.ledger import Journal, Ledger
from repro.topology.tree import Node, Topology

_EPSILON = 1e-6


@dataclass(frozen=True)
class _SlotOp:
    server_id: int
    count: int


@dataclass(frozen=True)
class _BandwidthOp:
    node_id: int
    prev_up: float
    prev_down: float


class ReferenceLedger:
    """The seed (pre-refactor) ledger: dict state, pointer walks.

    Journalling mirrors the seed contract: mutations append undo records
    to a caller-supplied ``ops`` list (one per placement attempt), and
    ``rollback`` pops that list back to a savepoint.
    """

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        self._used_slots = {s.node_id: 0 for s in topology.servers}
        self._used_up: dict[int, float] = {}
        self._used_down: dict[int, float] = {}
        self._free_subtree: dict[int, int] = {}
        self._over: set[int] = set()
        for node in topology.nodes:
            if not node.is_root:
                self._used_up[node.node_id] = 0.0
                self._used_down[node.node_id] = 0.0
        for server in topology.servers:
            for node in topology.ancestors(server, include_self=True):
                self._free_subtree[node.node_id] = (
                    self._free_subtree.get(node.node_id, 0) + server.slots
                )

    def free_slots(self, node: Node) -> int:
        return self._free_subtree[node.node_id]

    def used_slots(self, server: Node) -> int:
        return self._used_slots[server.node_id]

    def reserved_up(self, node: Node) -> float:
        return 0.0 if node.is_root else self._used_up[node.node_id]

    def reserved_down(self, node: Node) -> float:
        return 0.0 if node.is_root else self._used_down[node.node_id]

    def has_overcommit(self) -> bool:
        return bool(self._over)

    def overcommitted_nodes(self) -> frozenset[int]:
        return frozenset(self._over)

    def reserve_slots(self, server: Node, count: int, ops: list) -> bool:
        if self._used_slots[server.node_id] + count > server.slots:
            return False
        self._apply_slots(server, count)
        ops.append(_SlotOp(server.node_id, count))
        return True

    def release_slots(self, server: Node, count: int) -> None:
        if self._used_slots[server.node_id] - count < 0:
            raise LedgerError("over-release")
        self._apply_slots(server, -count)

    def adjust_uplink(
        self,
        node: Node,
        delta_up: float,
        delta_down: float,
        ops: list,
        enforce: bool = True,
    ) -> bool:
        if node.is_root:
            return True
        prev_up = self._used_up[node.node_id]
        prev_down = self._used_down[node.node_id]
        new_up = prev_up + delta_up
        new_down = prev_down + delta_down
        if new_up < -_EPSILON or new_down < -_EPSILON:
            raise LedgerError("negative reservation")
        over = (
            new_up > node.uplink_up + _EPSILON
            or new_down > node.uplink_down + _EPSILON
        )
        if enforce and over:
            return False
        self._used_up[node.node_id] = max(0.0, new_up)
        self._used_down[node.node_id] = max(0.0, new_down)
        self._update_overcommit(node.node_id)
        ops.append(_BandwidthOp(node.node_id, prev_up, prev_down))
        return True

    def release_uplink(self, node: Node, up: float, down: float) -> None:
        if node.is_root:
            return
        new_up = self._used_up[node.node_id] - up
        new_down = self._used_down[node.node_id] - down
        if new_up < -_EPSILON or new_down < -_EPSILON:
            raise LedgerError("over-release")
        self._used_up[node.node_id] = max(0.0, new_up)
        self._used_down[node.node_id] = max(0.0, new_down)
        self._update_overcommit(node.node_id)

    def rollback(self, ops: list, savepoint: int = 0) -> None:
        while len(ops) > savepoint:
            op = ops.pop()
            if isinstance(op, _SlotOp):
                self._apply_slots(self._topology.node(op.server_id), -op.count)
            else:
                assert isinstance(op, _BandwidthOp)
                self._used_up[op.node_id] = op.prev_up
                self._used_down[op.node_id] = op.prev_down
                self._update_overcommit(op.node_id)

    def _update_overcommit(self, node_id: int) -> None:
        node = self._topology.node(node_id)
        over = (
            self._used_up[node_id] > node.uplink_up + _EPSILON
            or self._used_down[node_id] > node.uplink_down + _EPSILON
        )
        if over:
            self._over.add(node_id)
        else:
            self._over.discard(node_id)

    def _apply_slots(self, server: Node, count: int) -> None:
        self._used_slots[server.node_id] += count
        for node in self._topology.ancestors(server, include_self=True):
            self._free_subtree[node.node_id] -= count


def observable_state(ledger, topology: Topology):
    """Everything a placer can see, via the public query surface."""
    return (
        {s.node_id: ledger.used_slots(s) for s in topology.servers},
        {n.node_id: ledger.free_slots(n) for n in topology.nodes},
        {
            n.node_id: (ledger.reserved_up(n), ledger.reserved_down(n))
            for n in topology.nodes
        },
        ledger.overcommitted_nodes(),
    )


class MirroredLedger(Ledger):
    """A live ledger that replays every mutation onto the reference.

    Return values and the full observable state are asserted equal after
    each mutation, so any divergence pinpoints the exact operation.
    """

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        self.reference = ReferenceLedger(topology)

    @staticmethod
    def _ref_ops(journal) -> list:
        """The reference's parallel undo log for one live journal.

        Journals are per placement attempt (and cleared on release), so
        the parallel log rides on the journal object itself, keeping the
        two 1:1 at every savepoint.
        """
        ops = getattr(journal, "_ref_ops", None)
        if ops is None:
            ops = journal._ref_ops = []
        return ops

    def _check(self) -> None:
        assert observable_state(self, self.topology) == observable_state(
            self.reference, self.topology
        )

    def reserve_slots(self, server, count, journal):
        got = super().reserve_slots(server, count, journal)
        assert got == self.reference.reserve_slots(
            server, count, self._ref_ops(journal)
        )
        self._check()
        return got

    def release_slots(self, server, count):
        super().release_slots(server, count)
        self.reference.release_slots(server, count)
        self._check()

    def adjust_uplink_id(self, node_id, delta_up, delta_down, journal, enforce=True):
        got = super().adjust_uplink_id(
            node_id, delta_up, delta_down, journal, enforce
        )
        node = self.topology.node(node_id)
        assert got == self.reference.adjust_uplink(
            node, delta_up, delta_down, self._ref_ops(journal), enforce
        )
        self._check()
        return got

    def release_uplink_id(self, node_id, up, down):
        super().release_uplink_id(node_id, up, down)
        self.reference.release_uplink(self.topology.node(node_id), up, down)
        self._check()

    def rollback(self, journal, savepoint=0):
        super().rollback(journal, savepoint)
        self.reference.rollback(self._ref_ops(journal), savepoint)
        self._check()


def random_tag(rng: random.Random, index: int) -> Tag:
    tag = Tag(f"tenant-{index}")
    tiers = rng.randint(1, 3)
    for tier in range(tiers):
        tag.add_component(f"t{tier}", rng.randint(1, 6))
    for tier in range(tiers - 1):
        send = rng.choice([0.5, 1.0, 2.0, 4.0])
        tag.add_undirected_edge(f"t{tier}", f"t{tier + 1}", send, send)
    if rng.random() < 0.5:
        tag.add_self_loop("t0", rng.choice([0.5, 1.0, 2.0]))
    return tag


TOPOLOGIES = {
    "rack": lambda: single_rack(servers=4, slots_per_server=3, nic_mbps=10.0),
    "tree": lambda: three_level_tree(
        DatacenterSpec(
            servers_per_rack=4,
            racks_per_pod=2,
            pods=2,
            slots_per_server=3,
            server_uplink=12.0,
            tor_oversub=2.0,
            agg_oversub=2.0,
        )
    ),
}


@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("seed", range(4))
def test_raw_ops_match_reference(topology_name, seed):
    """Fuzz the ledger surface; state must match the seed after every op.

    Mirrors the real lifecycle: each round is one journalled placement
    attempt (reserves, deferred/enforced adjustments, savepoints and
    partial rollbacks) that either rolls back wholesale or commits; a
    committed round's reservations become departure candidates, released
    outside any journal exactly as ``TenantAllocation.release`` does.
    """
    topology = TOPOLOGIES[topology_name]()
    rng = random.Random(seed)
    ledger = Ledger(topology)
    reference = ReferenceLedger(topology)
    nodes = list(topology.nodes)
    servers = list(topology.servers)
    # Committed state available for departure-style releases:
    committed_slots: list[tuple[Node, int]] = []
    committed_uplink: list[tuple[Node, float, float]] = []

    def check() -> None:
        assert observable_state(ledger, topology) == observable_state(
            reference, topology
        )

    for _ in range(60):
        journal = Journal()
        ref_ops: list = []
        savepoints: list[int] = []
        attempt_slots: list[tuple[Node, int]] = []
        attempt_uplink: list[tuple[Node, float, float]] = []
        for _ in range(rng.randint(1, 12)):
            action = rng.random()
            if action < 0.35:
                server = rng.choice(servers)
                count = rng.randint(1, 3)
                got = ledger.reserve_slots(server, count, journal)
                assert got == reference.reserve_slots(server, count, ref_ops)
                if got:
                    attempt_slots.append((server, count))
            elif action < 0.75:
                node = rng.choice(nodes)
                delta_up = rng.uniform(0.0, 6.0)
                delta_down = rng.uniform(0.0, 6.0)
                enforce = rng.random() < 0.5
                got = ledger.adjust_uplink_id(
                    node.node_id, delta_up, delta_down, journal, enforce
                )
                assert got == reference.adjust_uplink(
                    node, delta_up, delta_down, ref_ops, enforce
                )
                if got and not node.is_root:
                    attempt_uplink.append((node, delta_up, delta_down))
            elif action < 0.85:
                savepoints.append(journal.savepoint())
            elif savepoints:
                savepoint = savepoints.pop(rng.randrange(len(savepoints)))
                undone = len(journal.ops) > savepoint
                ledger.rollback(journal, savepoint)
                reference.rollback(ref_ops, savepoint)
                savepoints = [s for s in savepoints if s <= savepoint]
                if undone:
                    # Conservative release bookkeeping: drop the whole
                    # attempt from the departure candidates rather than
                    # track exactly which ops survived the rollback.
                    attempt_slots.clear()
                    attempt_uplink.clear()
            check()
        if rng.random() < 0.4:
            ledger.rollback(journal, 0)
            reference.rollback(ref_ops, 0)
            check()
        else:
            # Commit: the journal is discarded, reservations stay live.
            committed_slots.extend(attempt_slots)
            committed_uplink.extend(attempt_uplink)
        # Departures release some committed reservations, unjournalled.
        while committed_slots and rng.random() < 0.3:
            server, count = committed_slots.pop(
                rng.randrange(len(committed_slots))
            )
            ledger.release_slots(server, count)
            reference.release_slots(server, count)
            check()
        while committed_uplink and rng.random() < 0.3:
            node, up, down = committed_uplink.pop(
                rng.randrange(len(committed_uplink))
            )
            ledger.release_uplink_id(node.node_id, up, down)
            reference.release_uplink(node, up, down)
            check()


@pytest.mark.parametrize("seed", range(3))
def test_arrival_departure_matches_reference(seed):
    """Random arrivals/departures through CloudMirror, mirrored per-op.

    The mirrored ledger asserts state equality inside every mutation the
    placer makes — including the rollback storms of rejected tenants —
    and the accept/reject sequence must equal an unmirrored re-run's.
    """
    rng = random.Random(1000 + seed)
    tags = [random_tag(rng, i) for i in range(30)]
    events: list[tuple[str, int]] = []
    for index in range(len(tags)):
        events.append(("arrive", index))
        if rng.random() < 0.6:
            events.append(("depart", index))
    rng.shuffle(events)

    def run(ledger_cls):
        topology = TOPOLOGIES["tree"]()
        ledger = ledger_cls(topology)
        placer = CloudMirrorPlacer(ledger)
        live: dict[int, object] = {}
        outcomes: list[bool] = []
        for kind, index in events:
            if kind == "arrive":
                result = placer.place(tags[index])
                accepted = isinstance(result, Placement)
                outcomes.append(accepted)
                if accepted:
                    live[index] = result.allocation
            elif index in live:
                live.pop(index).release()
        return outcomes, ledger

    mirrored_outcomes, mirrored = run(MirroredLedger)
    plain_outcomes, plain = run(Ledger)
    assert mirrored_outcomes == plain_outcomes
    assert any(mirrored_outcomes), "scenario must accept at least one tenant"
    topology = mirrored.topology
    # Terminal cross-check: mirrored final state equals both the
    # reference's and the unmirrored run's.
    assert observable_state(mirrored, topology) == observable_state(
        mirrored.reference, topology
    )
    assert observable_state(plain, plain.topology) == observable_state(
        mirrored, topology
    )


def test_flat_arrays_match_tree_structure():
    """The flat view agrees with the Node graph on every derived array."""
    topology = TOPOLOGIES["tree"]()
    flat = topology.flat
    for node in topology.nodes:
        i = node.node_id
        assert flat.node_of[i] is node
        assert flat.level[i] == node.level
        assert flat.is_server[i] == node.is_server
        assert flat.parent[i] == (-1 if node.is_root else node.parent.node_id)
        expected_ancestors = tuple(
            n.node_id for n in topology.ancestors(node, include_self=True)
        )
        assert flat.ancestors[i] == expected_ancestors
        assert flat.path_up[i] == tuple(
            n.node_id for n in expected_path_to_root(topology, node)
        )
        span = sorted(flat.servers_under_id(i))
        walked = sorted(
            s.node_id for s in walk_servers(node)
        )
        assert span == walked
        assert flat.subtree_slots[i] == sum(
            topology.node(s).slots for s in span
        )


def expected_path_to_root(topology: Topology, node: Node) -> list[Node]:
    return [
        n for n in topology.ancestors(node, include_self=True) if not n.is_root
    ]


def walk_servers(node: Node):
    stack = [node]
    while stack:
        current = stack.pop()
        if current.is_server:
            yield current
        else:
            stack.extend(current.children)


def test_servers_under_preserves_legacy_order():
    """The span-backed iteration yields the seed's explicit-stack order."""
    topology = TOPOLOGIES["tree"]()
    for node in topology.nodes:
        assert [s.node_id for s in topology.servers_under(node)] == [
            s.node_id for s in walk_servers(node)
        ]


def test_infinite_capacity_topology_state_matches():
    """The unlimited (Table 1) topology keeps inf capacities intact."""
    topology = three_level_tree(
        DatacenterSpec(
            servers_per_rack=2,
            racks_per_pod=2,
            pods=1,
            slots_per_server=2,
            server_uplink=10.0,
        ),
        unlimited=True,
    )
    ledger = Ledger(topology)
    reference = ReferenceLedger(topology)
    journal = Journal()
    server = topology.servers[0]
    assert ledger.adjust_uplink_id(
        server.node_id, 1e9, 1e9, journal
    ) == reference.adjust_uplink(server, 1e9, 1e9, [])
    assert not ledger.has_overcommit()
    assert math.isinf(ledger.available_up_id(server.node_id))
    assert observable_state(ledger, topology) == observable_state(
        reference, topology
    )
