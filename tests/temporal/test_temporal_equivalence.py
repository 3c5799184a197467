"""Randomized equivalence: planes-on-arrays temporal ledger vs the seed.

``ReferenceTemporalLedger`` below reimplements the pre-PR-5 semantics —
W independent dict-backed bandwidth planes multiplexed by a Python loop,
per-plane undo logs, worst-case queries as a ``min`` over plane calls.
Two property
suites drive it in lockstep with the live
:class:`repro.temporal.admission.TemporalLedger`:

* a raw op fuzzer (slot ops, scaled adjustments,
  ratio switches, savepoints, partial rollbacks, unjournalled releases)
  asserting the full observable state — every plane's reservations
  included — matches after *every* operation, and
* a randomized admit/depart simulation through the real CloudMirror
  placer with per-tenant random diurnal profiles, mirroring every
  mutation onto the reference (rollback storms included), plus a
  determinism check against an unmirrored re-run.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.tag import Tag
from repro.errors import LedgerError
from repro.placement.base import Placement
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.temporal.admission import TemporalLedger
from repro.temporal.profile import TemporalProfile, TemporalTag
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Journal
from tests.fabrics import ancestors
from tests.topology.ledger_views import plane_matrices

_EPSILON = 1e-6

SPEC = DatacenterSpec(
    servers_per_rack=4,
    racks_per_pod=2,
    pods=2,
    slots_per_server=3,
    server_uplink=12.0,
    tor_oversub=2.0,
    agg_oversub=2.0,
)


class _ReferencePlane:
    """One dict-backed bandwidth plane (the seed per-plane ledger)."""

    def __init__(self, topology):
        self.topology = topology
        self.used_up = {
            n.node_id: 0.0 for n in topology.nodes if not n.is_root
        }
        self.used_down = dict(self.used_up)
        self.over: set[int] = set()

    def adjust(self, node_id, delta_up, delta_down, ops):
        node = self.topology.node(node_id)
        if node.is_root:
            return
        prev_up = self.used_up[node_id]
        prev_down = self.used_down[node_id]
        new_up = prev_up + delta_up
        new_down = prev_down + delta_down
        if new_up < -_EPSILON or new_down < -_EPSILON:
            raise LedgerError("negative reservation")
        self.used_up[node_id] = max(0.0, new_up)
        self.used_down[node_id] = max(0.0, new_down)
        self._update_over(node_id)
        ops.append((node_id, prev_up, prev_down))

    def release(self, node_id, up, down):
        node = self.topology.node(node_id)
        if node.is_root:
            return
        new_up = self.used_up[node_id] - up
        new_down = self.used_down[node_id] - down
        if new_up < -_EPSILON or new_down < -_EPSILON:
            raise LedgerError("over-release")
        self.used_up[node_id] = max(0.0, new_up)
        self.used_down[node_id] = max(0.0, new_down)
        self._update_over(node_id)

    def rollback(self, ops, savepoint):
        while len(ops) > savepoint:
            node_id, prev_up, prev_down = ops.pop()
            self.used_up[node_id] = prev_up
            self.used_down[node_id] = prev_down
            self._update_over(node_id)

    def _update_over(self, node_id):
        node = self.topology.node(node_id)
        if (
            self.used_up[node_id] > node.uplink_up + _EPSILON
            or self.used_down[node_id] > node.uplink_down + _EPSILON
        ):
            self.over.add(node_id)
        else:
            self.over.discard(node_id)


class ReferenceTemporalLedger:
    """The seed W-plane facade: a Python loop over dict planes.

    Journalling mirrors the seed contract: each composite mutation
    appends one multi-op marker (the per-plane savepoints) to the
    caller's ops list, and rollback replays every plane's undo log.
    """

    def __init__(self, topology, windows):
        self.topology = topology
        self.windows = windows
        self.planes = [_ReferencePlane(topology) for _ in range(windows)]
        self.plane_ops: list[list] = [[] for _ in range(windows)]
        self.used_slots = {s.node_id: 0 for s in topology.servers}
        self.free_subtree: dict[int, int] = {}
        for server in topology.servers:
            for node in ancestors(server):
                self.free_subtree[node.node_id] = (
                    self.free_subtree.get(node.node_id, 0) + server.slots
                )
        self.ratios = tuple([1.0] * windows)

    def set_ratios(self, profile: TemporalProfile):
        peak = profile.peak
        self.ratios = tuple(f / peak for f in profile.factors)

    # -- queries -------------------------------------------------------
    def free_slots_id(self, node_id):
        return self.free_subtree[node_id]

    def used_slots_id(self, server_id):
        return self.used_slots[server_id]

    def available_up_id(self, node_id):
        node = self.topology.node(node_id)
        if node.is_root:
            return math.inf
        return min(
            node.uplink_up - plane.used_up[node_id] for plane in self.planes
        )

    def available_down_id(self, node_id):
        node = self.topology.node(node_id)
        if node.is_root:
            return math.inf
        return min(
            node.uplink_down - plane.used_down[node_id]
            for plane in self.planes
        )

    def reserved_up_id(self, node_id, window):
        node = self.topology.node(node_id)
        return 0.0 if node.is_root else self.planes[window].used_up[node_id]

    def reserved_down_id(self, node_id, window):
        node = self.topology.node(node_id)
        return 0.0 if node.is_root else self.planes[window].used_down[node_id]

    def has_overcommit(self):
        return any(plane.over for plane in self.planes)

    # -- mutations -----------------------------------------------------
    def _mark(self):
        return tuple(len(ops) for ops in self.plane_ops)

    def reserve_slots_id(self, server_id, count, ops):
        server = self.topology.node(server_id)
        if self.used_slots[server_id] + count > server.slots:
            return False
        self._apply_slots(server, count)
        ops.append(("slots", server_id, count))
        return True

    def release_slots_id(self, server_id, count):
        if self.used_slots[server_id] - count < 0:
            raise LedgerError("over-release")
        self._apply_slots(self.topology.node(server_id), -count)

    def adjust_uplink_id(self, node_id, delta_up, delta_down, ops):
        if self.topology.node(node_id).is_root:
            return  # nothing to reserve, and nothing journalled
        marks = self._mark()
        for window, ratio in enumerate(self.ratios):
            self.planes[window].adjust(
                node_id,
                delta_up * ratio,
                delta_down * ratio,
                self.plane_ops[window],
            )
        ops.append(("bw", marks))

    def release_uplink_id(self, node_id, up, down):
        for window, ratio in enumerate(self.ratios):
            if up * ratio or down * ratio:
                self.planes[window].release(node_id, up * ratio, down * ratio)

    def rollback(self, ops, savepoint=0):
        if len(ops) <= savepoint:
            return
        first = ops[savepoint]
        # Undo in reverse: slot ops invert directly; the *oldest*
        # bandwidth marker rewinds every plane past everything newer.
        for op in reversed(ops[savepoint:]):
            if op[0] == "slots":
                self._apply_slots(self.topology.node(op[1]), -op[2])
        for op in ops[savepoint:]:
            if op[0] == "bw":
                for window, mark in enumerate(op[1]):
                    self.planes[window].rollback(
                        self.plane_ops[window], mark
                    )
                break
        del ops[savepoint:]

    def _apply_slots(self, server, count):
        self.used_slots[server.node_id] += count
        for node in ancestors(server):
            self.free_subtree[node.node_id] -= count


def observable_state(ledger, reference, topology, windows):
    """Compare everything a placer (or a metric) can see, per plane."""
    up, down = (matrix.tolist() for matrix in plane_matrices(ledger))
    live = (
        {s.node_id: ledger.used_slots_id(s.node_id) for s in topology.servers},
        {n.node_id: ledger.free_slots_id(n.node_id) for n in topology.nodes},
        {
            n.node_id: ledger.available_up_id(n.node_id)
            for n in topology.nodes
        },
        {
            n.node_id: ledger.available_down_id(n.node_id)
            for n in topology.nodes
        },
        [
            {n.node_id: (up[w][n.node_id], down[w][n.node_id]) for n in topology.nodes}
            for w in range(windows)
        ],
        ledger.has_overcommit(),
    )
    ref = (
        {
            s.node_id: reference.used_slots_id(s.node_id)
            for s in topology.servers
        },
        {
            n.node_id: reference.free_slots_id(n.node_id)
            for n in topology.nodes
        },
        {
            n.node_id: reference.available_up_id(n.node_id)
            for n in topology.nodes
        },
        {
            n.node_id: reference.available_down_id(n.node_id)
            for n in topology.nodes
        },
        [
            {
                n.node_id: (
                    reference.reserved_up_id(n.node_id, w),
                    reference.reserved_down_id(n.node_id, w),
                )
                for n in topology.nodes
            }
            for w in range(windows)
        ],
        reference.has_overcommit(),
    )
    return live, ref


def random_profile(rng: random.Random, windows: int) -> TemporalProfile:
    factors = tuple(
        rng.choice([0.1, 0.25, 0.5, 0.75, 1.0]) for _ in range(windows)
    )
    if max(factors) <= 0:
        factors = factors[:-1] + (1.0,)
    return TemporalProfile(factors)


@pytest.mark.parametrize("windows", [1, 3, 6])
@pytest.mark.parametrize("seed", range(3))
def test_raw_ops_match_reference(windows, seed):
    """Fuzz the W-plane surface; state must match after every op."""
    topology = three_level_tree(SPEC)
    rng = random.Random(1234 + seed)
    ledger = TemporalLedger(topology, windows)
    reference = ReferenceTemporalLedger(topology, windows)
    nodes = [n.node_id for n in topology.nodes]
    servers = [s.node_id for s in topology.servers]
    committed: list[tuple] = []

    def check():
        live, ref = observable_state(ledger, reference, topology, windows)
        assert live == ref

    for _ in range(40):
        profile = random_profile(rng, windows)
        ledger.set_ratios(profile)
        reference.set_ratios(profile)
        ratios = reference.ratios
        journal = Journal()
        ref_ops: list = []
        savepoints: list[int] = []
        attempt: list[tuple] = []
        for _ in range(rng.randint(1, 10)):
            action = rng.random()
            if action < 0.3:
                server_id = rng.choice(servers)
                count = rng.randint(1, 3)
                got = ledger.reserve_slots(server_id, count, journal)
                assert got == reference.reserve_slots_id(
                    server_id, count, ref_ops
                )
                if got:
                    attempt.append(("slots", server_id, count))
            elif action < 0.7:
                node_id = rng.choice(nodes)
                delta_up = rng.uniform(0.0, 6.0)
                delta_down = rng.uniform(0.0, 6.0)
                ledger.adjust_uplink_id(node_id, delta_up, delta_down, journal)
                reference.adjust_uplink_id(node_id, delta_up, delta_down, ref_ops)
                if node_id != topology.root.node_id:
                    attempt.append(("bw", node_id, delta_up, delta_down, ratios))
            elif action < 0.85:
                savepoints.append(journal.savepoint())
            elif savepoints:
                savepoint = savepoints.pop(rng.randrange(len(savepoints)))
                undone = len(journal.ops) > savepoint
                ledger.rollback(journal, savepoint)
                reference.rollback(ref_ops, savepoint)
                savepoints = [s for s in savepoints if s <= savepoint]
                if undone:
                    attempt.clear()
            check()
        if rng.random() < 0.4:
            ledger.rollback(journal, 0)
            reference.rollback(ref_ops, 0)
            check()
        else:
            committed.extend(attempt)
        # Departure-style unjournalled releases of committed state, under
        # the reservation-time ratios.
        while committed and rng.random() < 0.3:
            op = committed.pop(rng.randrange(len(committed)))
            if op[0] == "slots":
                ledger.release_slots(op[1], op[2])
                reference.release_slots_id(op[1], op[2])
            else:
                _, node_id, delta_up, delta_down, op_ratios = op
                restore = TemporalProfile(op_ratios)
                ledger.set_ratios(restore)
                reference.set_ratios(restore)
                ledger.release_uplink_id(node_id, delta_up, delta_down)
                reference.release_uplink_id(node_id, delta_up, delta_down)
                ledger.set_ratios(profile)
                reference.set_ratios(profile)
            check()


class MirroredTemporalLedger(TemporalLedger):
    """A live W-plane ledger replaying every mutation onto the reference."""

    def __init__(self, topology, windows):
        super().__init__(topology, windows)
        self.reference = ReferenceTemporalLedger(topology, windows)

    @staticmethod
    def _ref_ops(journal):
        ops = getattr(journal, "_ref_ops", None)
        if ops is None:
            ops = journal._ref_ops = []
        return ops

    def _check(self):
        live, ref = observable_state(
            self, self.reference, self.topology, self.windows
        )
        assert live == ref

    def set_ratios(self, profile):
        super().set_ratios(profile)
        self.reference.set_ratios(profile)

    def reserve_slots(self, server_id, count, journal):
        got = super().reserve_slots(server_id, count, journal)
        assert got == self.reference.reserve_slots_id(
            server_id, count, self._ref_ops(journal)
        )
        return got

    def release_slots(self, server_id, count):
        super().release_slots(server_id, count)
        self.reference.release_slots_id(server_id, count)

    def adjust_uplink_id(self, node_id, delta_up, delta_down, journal):
        super().adjust_uplink_id(node_id, delta_up, delta_down, journal)
        self.reference.adjust_uplink_id(
            node_id, delta_up, delta_down, self._ref_ops(journal)
        )
        self._check()

    def release_uplink_id(self, node_id, up, down):
        super().release_uplink_id(node_id, up, down)
        self.reference.release_uplink_id(node_id, up, down)
        self._check()

    def rollback(self, journal, savepoint=0):
        super().rollback(journal, savepoint)
        self.reference.rollback(self._ref_ops(journal), savepoint)
        self._check()


def random_tenant(rng: random.Random, index: int, windows: int) -> TemporalTag:
    tag = Tag(f"tenant-{index}")
    tiers = rng.randint(1, 3)
    for tier in range(tiers):
        tag.add_component(f"t{tier}", rng.randint(1, 5))
    for tier in range(tiers - 1):
        send = rng.choice([0.5, 1.0, 2.0, 4.0])
        tag.add_undirected_edge(f"t{tier}", f"t{tier + 1}", send, send)
    if rng.random() < 0.5:
        tag.add_self_loop("t0", rng.choice([0.5, 1.0, 2.0]))
    return TemporalTag(tag, random_profile(rng, windows))


@pytest.mark.parametrize("windows", [2, 5])
@pytest.mark.parametrize("seed", range(2))
def test_admissions_match_reference(windows, seed):
    """Random admit/depart through CloudMirror, mirrored per mutation."""
    rng = random.Random(9000 + 13 * seed)
    tenants = [random_tenant(rng, i, windows) for i in range(24)]
    events: list[tuple[str, int]] = []
    for index in range(len(tenants)):
        events.append(("arrive", index))
        if rng.random() < 0.6:
            events.append(("depart", index))
    rng.shuffle(events)

    def run(ledger_cls):
        topology = three_level_tree(SPEC)
        ledger = ledger_cls(topology, windows)
        placer = CloudMirrorPlacer(ledger)
        live: dict[int, object] = {}
        outcomes: list[bool] = []
        for kind, index in events:
            if kind == "arrive":
                ledger.set_ratios(tenants[index].profile)
                tenant = tenants[index]
                result = placer.place(tenant.base.scaled(tenant.profile.peak))
                accepted = isinstance(result, Placement)
                outcomes.append(accepted)
                if accepted:
                    live[index] = result.allocation
            elif index in live:
                ledger.set_ratios(tenants[index].profile)
                live.pop(index).release()
        return outcomes, ledger

    mirrored_outcomes, mirrored = run(MirroredTemporalLedger)
    plain_outcomes, plain = run(TemporalLedger)
    assert mirrored_outcomes == plain_outcomes
    assert any(mirrored_outcomes), "scenario must accept at least one tenant"
    live, ref = observable_state(
        mirrored, mirrored.reference, mirrored.topology, windows
    )
    assert live == ref
    # The unmirrored run lands in the same terminal state.
    up_a, down_a = plane_matrices(mirrored)
    up_b, down_b = plane_matrices(plain)
    assert up_a.tolist() == up_b.tolist()
    assert down_a.tolist() == down_b.tolist()
