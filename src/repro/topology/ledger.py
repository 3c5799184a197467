"""Transactional slot and bandwidth reservation ledger.

The ledger is the single mutable view of a topology: per-server used VM
slots and per-node used uplink bandwidth (both directions).  It also
maintains, incrementally, the aggregate number of free slots under every
subtree so placement algorithms can do O(1) feasibility pre-checks.

All mutations go through a :class:`Journal` so that a placement attempt
can be rolled back wholesale when it fails part-way (Algorithm 1's
``Dealloc``), and so a departing tenant can release exactly what it
reserved.  Capacity violations are reported by returning ``False``;
inconsistencies (releasing more than reserved) raise :class:`LedgerError`.

State lives in flat id-indexed arrays mirroring
:class:`repro.topology.flat.FlatTopology` (used slots, used up/down
bandwidth, free slots per subtree), so capacity checks and rollbacks are
plain list indexing rather than dict lookups, and the slot aggregates
update by looping a precomputed ancestor id tuple.  Bandwidth is queried
and mutated by raw node id only (``*_id``), with ids drawn from the flat
topology's path arrays; the ``Node``-taking forms that remain are the
read-outs callers hold a ``Node`` for (``free_slots``, ``used_slots``,
``reserved_up`` / ``reserved_down``) and ``reserve_slots`` /
``release_slots``, which have no id twin.

:class:`ReservationLedger` is the one base of both storages — everything
that reads only the worst-case reservation per uplink is defined there
once.  :class:`Ledger` keeps one reservation per uplink, which is its
own worst case; the W-plane
:class:`repro.temporal.admission.TemporalLedger` keeps a W-window
column per uplink and its maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro import _kernels
from repro.core.constants import EPSILON
from repro.errors import LedgerError
from repro.obs import core as _obs
from repro.topology.tree import Node, Topology

__all__ = ["Ledger", "Journal", "ReservationLedger"]

# Tolerance for floating-point capacity comparisons (Mbps); the single
# repo-wide value from repro.core.constants.
_EPSILON = EPSILON

# Journal op tags.  Ops are plain tuples — (tag, ...) — because placement
# sweeps journal millions of mutations and dataclass construction was a
# measurable share of trial runtime:
#   (OP_SLOTS, server_id, count)
#   (OP_BANDWIDTH, node_id, ...)
# :meth:`ReservationLedger.rollback` undoes all three.  The tail of a
# bandwidth record is its ledger's own — ``prev_up, prev_down`` here, the
# previous columns and maxima in the temporal ledger — written by that
# ledger's adjust kernel and read back by its ``_restore_bandwidth``.
# OP_MASK records failure-mask transitions — (OP_MASK, kind, ...) — and
# goes to the attached :class:`repro.topology.failures.FailureMask`.
OP_SLOTS = 0
OP_BANDWIDTH = 1
OP_MASK = 2

# The adjust kernels journal OP_BANDWIDTH records themselves; the tag
# value is part of the kernel contract (see repro._kernels.pyref).
assert OP_BANDWIDTH == 1


@dataclass
class Journal:
    """An undo log of ledger mutations for one placement attempt.

    Ops are opaque to callers; only the ledger that wrote them reads
    them back, in its rollback.
    """

    ops: list[object] = field(default_factory=list)

    def savepoint(self) -> int:
        return len(self.ops)


class ReservationLedger:
    """Slot accounting, worst-case uplink state and rollback of every ledger.

    VM slots are time-invariant, so there is exactly one copy of that
    state whatever the bandwidth storage.  Bandwidth is seen here only
    through ``_max_up`` / ``_max_down`` — per uplink, the largest
    reservation any time window holds — which is all that availability,
    the overcommit set and the read-outs need.  A subclass adds its
    reservation block, keeps ``_max_*`` current in its mutators
    (``adjust_uplink_id``, ``release_uplink_id``) and restores both from
    an ``OP_BANDWIDTH`` record in ``_restore_bandwidth(op)``.

    An optional :class:`repro.placement.candidates.CandidateIndex` can
    attach via :meth:`ensure_candidate_index`; once attached, every slot
    mutation (reserve, release and rollback all funnel through
    :meth:`_apply_slots`) marks the touched server's root-path dirty so
    the index re-scores exactly those nodes on its next lookup.
    """

    # One shared attachment point: ``None`` (the class default) keeps
    # the un-indexed fast path to a single identity test per mutation.
    _candidate_index = None
    # Failure-mask attachment (repro.topology.failures.FailureMask).
    # ``_down_cover`` aliases the mask's per-server cover counts so the
    # slot funnel pays one identity test per mutation without a mask.
    _failure_mask = None
    _down_cover = None

    def __init__(self, topology: Topology) -> None:
        _kernels.note_backend()
        self.topology = topology
        # The flat array view the placement machinery drives its path
        # walks from.
        flat = topology.flat
        self.flat = flat
        size = flat.size
        self._root_id = flat.root_id
        # Local aliases of the flat capacity arrays: the availability
        # queries below are the placer's innermost loop.
        self._cap_up = flat.cap_up
        self._cap_down = flat.cap_down
        self._nom_up = flat.nominal_up
        self._nom_down = flat.nominal_down
        # Worst-case reservation per uplink, maintained on every
        # mutation so availability is one load + subtraction.
        self._max_up = [0.0] * size
        self._max_down = [0.0] * size
        self._used_slots = [0] * size
        self._free_subtree = list(flat.subtree_slots)
        # Effective slot capacity: an *alias* of the shared immutable
        # column until a FailureMask attaches and swaps in its own copy.
        self.slot_cap = flat.slots
        self._over: set[int] = set()

    def ensure_candidate_index(self):
        """The ledger's attached candidate index, created on first use."""
        if self._candidate_index is None:
            from repro.placement.candidates import CandidateIndex

            self._candidate_index = CandidateIndex(self)
        return self._candidate_index

    def ensure_failure_mask(self):
        """The ledger's attached failure mask, created on first use."""
        if self._failure_mask is None:
            from repro.topology.failures import FailureMask

            FailureMask(self)  # attaches itself (sets _failure_mask)
        return self._failure_mask

    @property
    def failure_mask(self):
        return self._failure_mask

    def mask_version(self) -> int:
        """Failure-state generation counter (0 while no mask exists)."""
        mask = self._failure_mask
        return 0 if mask is None else mask.version

    def slot_capacity_id(self, server_id: int) -> int:
        """Effective slot capacity: ``flat.slots`` unless masked down."""
        return self.slot_cap[server_id]

    def alive_subtree_slots_id(self, node_id: int) -> int:
        """Subtree slot capacity excluding failed servers."""
        mask = self._failure_mask
        if mask is None:
            return self.flat.subtree_slots[node_id]
        return self.flat.subtree_slots[node_id] - mask.masked_subtree[node_id]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def free_slots(self, node: Node) -> int:
        """Free VM slots in the subtree rooted at ``node``."""
        return self._free_subtree[node.node_id]

    def free_slots_id(self, node_id: int) -> int:
        return self._free_subtree[node_id]

    def used_slots(self, server: Node) -> int:
        return self._used_slots[server.node_id]

    def used_slots_id(self, server_id: int) -> int:
        return self._used_slots[server_id]

    def available_up_id(self, node_id: int) -> float:
        """Unreserved uplink capacity toward the root."""
        if node_id == self._root_id:
            return math.inf
        return self._cap_up[node_id] - self._max_up[node_id]

    def available_down_id(self, node_id: int) -> float:
        """Unreserved uplink capacity toward the leaves."""
        if node_id == self._root_id:
            return math.inf
        return self._cap_down[node_id] - self._max_down[node_id]

    def nominal_available_up_id(self, node_id: int) -> float:
        """Unreserved *nominal* uplink capacity toward the root.

        Identical to :meth:`available_up_id` on real topologies; on the
        idealized unlimited topology (Table 1) it reflects the realistic
        capacity the placement heuristics should reason about.
        """
        if node_id == self._root_id:
            return math.inf
        return self._nom_up[node_id] - self._max_up[node_id]

    def nominal_available_down_id(self, node_id: int) -> float:
        """Unreserved nominal uplink capacity toward the leaves."""
        if node_id == self._root_id:
            return math.inf
        return self._nom_down[node_id] - self._max_down[node_id]

    def reserved_up(self, node: Node) -> float:
        node_id = node.node_id
        return 0.0 if node_id == self._root_id else self._max_up[node_id]

    def reserved_down(self, node: Node) -> float:
        node_id = node.node_id
        return 0.0 if node_id == self._root_id else self._max_down[node_id]

    def _level_sum(
        self, level: int, values: list[float], stride: int = 1, offset: int = 0
    ) -> float:
        """Left-to-right total of ``values[id * stride + offset]`` over the
        uplinks of one tree level.

        Not builtin ``sum()``: that is compensated from Python 3.12 on,
        and these totals feed pinned rows (Table 1, the temporal goldens).
        """
        root_id = self._root_id
        total = 0.0
        for node_id in self.flat.level_ids[level]:
            if node_id != root_id:
                total += values[node_id * stride + offset]
        return total

    def has_overcommit(self) -> bool:
        """Any uplink currently reserved beyond its capacity?"""
        return bool(self._over)

    def overcommitted_nodes(self) -> frozenset[int]:
        return frozenset(self._over)

    def _update_overcommit(self, node_id: int) -> None:
        """Refresh ``node_id``'s overcommit membership from its maxima."""
        if (
            self._max_up[node_id] > self._cap_up[node_id] + _EPSILON
            or self._max_down[node_id] > self._cap_down[node_id] + _EPSILON
        ):
            self._over.add(node_id)
        else:
            self._over.discard(node_id)

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def reserve_slots(self, server: Node, count: int, journal: Journal) -> bool:
        """Reserve ``count`` VM slots on ``server``; False if over capacity."""
        server_id = server.node_id
        if count <= 0:
            raise LedgerError(f"slot reservation must be positive, got {count}")
        if self._used_slots[server_id] + count > self.slot_cap[server_id]:
            return False
        self._apply_slots(server_id, count)
        journal.ops.append((OP_SLOTS, server_id, count))
        return True

    def release_slots(self, server: Node, count: int) -> None:
        """Release previously reserved slots (tenant departure path)."""
        server_id = server.node_id
        if count <= 0:
            raise LedgerError(f"slot release must be positive, got {count}")
        if self._used_slots[server_id] - count < 0:
            raise LedgerError(
                f"releasing {count} slots on {server.name!r} but only "
                f"{self._used_slots[server_id]} reserved"
            )
        self._apply_slots(server_id, -count)

    def _apply_slots(self, server_id: int, count: int) -> None:
        # Every slot mutation in the repo funnels through here (reserve,
        # release, rollback) — one counter site covers them all.  The
        # guard is the obs contract: one attribute load + identity test
        # when instrumentation is off.
        c = _obs.counters
        if c is not None:
            c.bump("ledger.slot_mutations")
        self._used_slots[server_id] += count
        down = self._down_cover
        if down is not None and down[server_id]:
            # A covered server contributes 0 free slots and 0 capacity
            # regardless of ``used`` (only victim releases land here —
            # reserve_slots refuses the zeroed capacity), so the subtree
            # aggregates and candidate orderings are unaffected.  The
            # mask re-applies the current ``used`` when it comes back up.
            return
        free = self._free_subtree
        ancestors = self.flat.ancestors[server_id]
        for node_id in ancestors:
            free[node_id] -= count
        index = self._candidate_index
        if index is not None:
            index.touch_path(ancestors)

    def _adjust_refused(self, status: int, node_id: int) -> bool:
        """An adjust kernel's non-zero status: refused (False) or an error."""
        if status == 2:
            raise LedgerError(
                f"uplink reservation on {self._name(node_id)!r} would "
                "become negative"
            )
        return False

    def _name(self, node_id: int) -> str:
        return self.flat.node_of[node_id].name  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    # rollback
    # ------------------------------------------------------------------
    def rollback(self, journal: Journal, savepoint: int = 0) -> None:
        """Undo journalled operations back to ``savepoint`` (in reverse)."""
        ops = journal.ops
        c = _obs.counters
        if c is not None and len(ops) > savepoint:
            c.bump("ledger.rollback_ops", len(ops) - savepoint)
        while len(ops) > savepoint:
            op = ops.pop()
            tag = op[0]
            if tag == OP_SLOTS:
                self._apply_slots(op[1], -op[2])
            elif tag == OP_BANDWIDTH:
                self._restore_bandwidth(op)
                self._update_overcommit(op[1])
            elif tag == OP_MASK:
                self._failure_mask._undo(op)
            else:  # pragma: no cover - defensive
                raise LedgerError(f"unknown journal op {op!r}")


class Ledger(ReservationLedger):
    """Mutable reservation state over an immutable :class:`Topology`."""

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology)
        # One reservation per uplink is its own worst case.
        self._used_up = self._max_up
        self._used_down = self._max_down
        # Finite-capacity server uplinks, for the utilization metric: the
        # capacity denominator is static, the usage numerator is summed
        # per sample in the same (node-id) order the seed code used.
        flat = self.flat
        self._finite_server_ids = tuple(
            i
            for i in flat.server_order
            if math.isfinite(flat.cap_up[i]) and i != self._root_id
        )
        capacity = 0.0
        for node in topology.servers:
            if math.isfinite(node.uplink_up):
                capacity += node.uplink_up
        self._finite_server_capacity = capacity

    # ------------------------------------------------------------------
    # utilisation metrics
    # ------------------------------------------------------------------
    def reserved_at_level(self, level: int) -> float:
        """Total reserved uplink bandwidth (up direction) at one tree level.

        This is the metric of Table 1: "bandwidth reserved on uplinks from
        the server / ToR / agg switch network levels".
        """
        return self._level_sum(level, self._used_up)

    def iter_utilization(self) -> Iterator[tuple[Node, float, float]]:
        """Yield ``(node, up_fraction, down_fraction)`` for capacity links."""
        for node in self.topology.nodes:
            if node.is_root or math.isinf(node.uplink_up):
                continue
            yield (
                node,
                self._used_up[node.node_id] / node.uplink_up,
                self._used_down[node.node_id] / node.uplink_down,
            )

    def server_bandwidth_fraction(self) -> float:
        """Reserved fraction of finite server uplink capacity (up direction).

        The utilization metric the cluster manager samples after every
        admission; the static capacity denominator is precomputed.
        """
        capacity = self._finite_server_capacity
        if not capacity:
            return 0.0
        used_up = self._used_up
        used = 0.0
        for node_id in self._finite_server_ids:
            used += used_up[node_id]
        return used / capacity

    # ------------------------------------------------------------------
    # mutations (journalled)
    # ------------------------------------------------------------------
    def adjust_uplink_id(
        self,
        node_id: int,
        delta_up: float,
        delta_down: float,
        journal: Journal,
        enforce: bool = True,
    ) -> bool:
        """Adjust reserved uplink bandwidth by a delta (the placement hot path).

        With ``enforce=True`` the adjustment is refused (returning False)
        when it would exceed capacity.  With ``enforce=False`` the
        adjustment always applies and over-capacity links are tracked in
        the overcommit set; placement algorithms use this to defer the
        capacity check to subtree-completion boundaries (Algorithm 1
        reserves per completed subtree, so transient mid-placement spikes
        must not reject a tenant that finally fits).

        The fused adjust + feasibility check + journal append runs in
        the active :mod:`repro._kernels` backend; this wrapper keeps
        only the root fast path, the error raise, and the obs counter.
        """
        if node_id == self._root_id:
            return True
        status = _kernels.ledger_adjust(
            self._used_up,
            self._used_down,
            self._cap_up,
            self._cap_down,
            self._over,
            journal.ops,
            node_id,
            delta_up,
            delta_down,
            enforce,
            _EPSILON,
        )
        if status:
            return self._adjust_refused(status, node_id)
        c = _obs.counters
        if c is not None:
            c.bump("ledger.journal_ops")
        return True

    def would_overcommit(
        self, node_id: int, deltas: Iterable[tuple[float, float]]
    ) -> bool | None:
        """Would unenforced adjusts by ``deltas``, in order, end overcommitted?

        Runs the adjust kernel :meth:`adjust_uplink_id` runs, on a private
        one-node copy of the uplink — the over-set's answer, with nothing
        changed.  ``None`` when a delta would be refused (the real adjust
        raises).
        """
        if node_id == self._root_id:
            return False
        up, down = [self._used_up[node_id]], [self._used_down[node_id]]
        cap_up, cap_down = [self._cap_up[node_id]], [self._cap_down[node_id]]
        over: set[int] = set()
        ops: list[object] = []
        for d_up, d_down in deltas:
            if _kernels.ledger_adjust(
                up, down, cap_up, cap_down, over, ops, 0, d_up, d_down, False, _EPSILON
            ):
                return None
        return bool(over)

    def release_uplink_id(self, node_id: int, up: float, down: float) -> None:
        """Release bandwidth without journalling (tenant departure path)."""
        if node_id == self._root_id:
            return
        new_up = self._used_up[node_id] - up
        new_down = self._used_down[node_id] - down
        if new_up < -_EPSILON or new_down < -_EPSILON:
            raise LedgerError(
                "releasing more bandwidth than reserved on "
                f"{self._name(node_id)!r}"
            )
        self._used_up[node_id] = new_up if new_up > 0.0 else 0.0
        self._used_down[node_id] = new_down if new_down > 0.0 else 0.0
        self._update_overcommit(node_id)

    def _restore_bandwidth(self, op) -> None:
        """Undo one ``(OP_BANDWIDTH, node_id, prev_up, prev_down)`` record."""
        node_id = op[1]
        self._used_up[node_id] = op[2]
        self._used_down[node_id] = op[3]
