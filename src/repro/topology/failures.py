"""First-class failure state over the flat topology arrays.

A :class:`FailureMask` attaches to any ``ReservationLedger``
(the classic :class:`~repro.topology.ledger.Ledger` or the W-plane
temporal ledger) and makes failed servers, switches and uplinks a native
input to the placement scan — the FGR model of ``--failed 4 8 18``-style
node exclusion — instead of a post-hoc topology rebuild:

* per-server **cover counts** (how many failure marks currently cover
  each server) back the boolean "down" column over ``slots[]``;
* the ledger's effective slot-capacity column (``ledger.slot_cap``,
  normally an alias of the immutable ``flat.slots``) is swapped for a
  private mutable copy, and a down server's capacity drops to 0 — every
  capacity check in the placers reads this column, so no reservation can
  land on a failed server;
* the ledger's ``_free_subtree`` aggregates are adjusted along the
  failed server's ancestor tuple (the same dirty-bit funnel slot
  mutations use), so failed subtrees fall out of per-level and per-rack
  candidate orderings automatically;
* ``masked_subtree`` tracks the *capacity* masked out under every node,
  giving CloudMirror's low-bandwidth threshold the alive subtree size;
* every ``fail``/``restore`` appends one journal record (tag
  ``OP_MASK``), so a ledger rollback restores failure state exactly —
  interleaved with slot and bandwidth ops, in reverse order.

The mask is *placement-equivalent to physically pruning the topology*:
a down server contributes 0 free slots and 0 slot capacity, which is
indistinguishable from being absent for every candidate ordering,
feasibility check and equivalence-class dedup key in the four placers.
``tests/failures/`` pins that claim with a differential lockstep suite
against :func:`pruned_topology`.

Semantics:

* failing a **server** downs that server;
* failing a **switch** downs every server in its subtree (the tree has
  no alternative path around a dead switch);
* failing a **link** (a node's uplink toward its parent) disconnects
  the node's subtree, which is placement-equivalent to failing the node
  itself — :meth:`FailureMask.fail_link` records the same mark, and the
  distinction lives in the caller's metrics, not the mask;
* restoring a node clears every failure mark in its subtree; a server
  stays down while a mark *outside* the restored subtree (e.g. a failed
  ancestor switch) still covers it.

Bandwidth columns are left untouched: no reservation can involve a
failed subtree (placement never lands there, and victims release their
whole allocation), so the mask never needs to edit ``cap_up``/
``cap_down``.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import TopologyError
from repro.topology.ledger import OP_MASK, Journal
from repro.topology.tree import Node, Topology

__all__ = ["FailureMask", "pruned_topology"]

# Sub-kinds inside an (OP_MASK, kind, ...) journal record.
_FAIL = 0
_RESTORE = 1


class FailureMask:
    """Journalled failure state attached to one slot-accounting ledger.

    Create via ``ledger.ensure_failure_mask()`` (idempotent).  All
    mutations take the same :class:`Journal` the placement ops use, so
    ``ledger.rollback`` undoes failures and placements together.
    """

    __slots__ = ("ledger", "flat", "cover", "masked_subtree", "failed", "version")

    def __init__(self, ledger) -> None:
        self.ledger = ledger
        flat = ledger.flat
        self.flat = flat
        # cover[s] = number of failure marks whose subtree contains
        # server s; the server is down while cover[s] > 0.
        self.cover = [0] * flat.size
        # Slot *capacity* masked out under each node (alive subtree
        # slots = flat.subtree_slots - masked_subtree).
        self.masked_subtree = [0] * flat.size
        # Explicit failure marks, by node id (servers and switches).
        self.failed: set[int] = set()
        # Bumped on every fail/restore/undo; memoized derived state
        # (e.g. CloudMirror's threshold cache) keys on it.
        self.version = 0
        # Swap the ledger's shared immutable capacity alias for a
        # private mutable copy; consumers keep reading ``ledger.slot_cap``.
        ledger.slot_cap = list(flat.slots)
        ledger._down_cover = self.cover
        ledger._failure_mask = self

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_failed(self, node_id: int) -> bool:
        """Is there an explicit failure mark on this node?"""
        return node_id in self.failed

    def is_down(self, server_id: int) -> bool:
        """Is this server covered by any failure mark?"""
        return self.cover[server_id] > 0

    def down_servers(self) -> tuple[int, ...]:
        """All covered server ids, in preorder."""
        cover = self.cover
        return tuple(i for i in self.flat.server_order if cover[i])

    def failed_nodes(self) -> frozenset[int]:
        return frozenset(self.failed)

    # ------------------------------------------------------------------
    # mutations (journalled)
    # ------------------------------------------------------------------
    def fail(self, node_id: int, journal: Journal) -> tuple[int, ...]:
        """Mark a server or switch failed; returns the newly-down servers.

        A no-op (returning ``()``) if the node already carries a mark.
        """
        if node_id in self.failed:
            return ()
        lo, hi = self.flat.server_span[node_id]
        order = self.flat.server_order
        cover = self.cover
        downed = []
        for position in range(lo, hi):
            server_id = order[position]
            cover[server_id] += 1
            if cover[server_id] == 1:
                downed.append(server_id)
                self._on_down(server_id)
        self.failed.add(node_id)
        self.version += 1
        journal.ops.append((OP_MASK, _FAIL, node_id))
        return tuple(downed)

    def fail_link(self, node_id: int, journal: Journal) -> tuple[int, ...]:
        """Fail the uplink from ``node_id`` toward its parent.

        In a tree a dead uplink strands the whole subtree below it, so
        the placement effect is identical to :meth:`fail`; callers keep
        the link/switch distinction in their own metrics.
        """
        if node_id == self.flat.root_id:
            raise TopologyError("the root has no uplink to fail")
        return self.fail(node_id, journal)

    def restore(self, node_id: int, journal: Journal) -> tuple[int, ...]:
        """Clear every failure mark within the subtree of ``node_id``.

        Returns the servers that came back up (a server covered by a
        mark outside the restored subtree stays down).  No-op if the
        subtree holds no marks.
        """
        ancestors = self.flat.ancestors
        cleared = tuple(
            mark
            for mark in sorted(self.failed)
            if mark == node_id or node_id in ancestors[mark]
        )
        if not cleared:
            return ()
        order = self.flat.server_order
        span = self.flat.server_span
        cover = self.cover
        raised = []
        for mark in cleared:
            lo, hi = span[mark]
            for position in range(lo, hi):
                server_id = order[position]
                cover[server_id] -= 1
                if cover[server_id] == 0:
                    raised.append(server_id)
                    self._on_up(server_id)
        self.failed.difference_update(cleared)
        self.version += 1
        journal.ops.append((OP_MASK, _RESTORE, node_id, cleared))
        return tuple(raised)

    # ------------------------------------------------------------------
    # transitions + rollback
    # ------------------------------------------------------------------
    def _on_down(self, server_id: int) -> None:
        """Server transitioned alive -> down: mask its capacity out."""
        ledger = self.ledger
        slots = self.flat.slots[server_id]
        # Free contribution while alive was (capacity - used); once the
        # capacity column hits 0, reserve_slots refuses the server, so
        # used can only shrink (victim release) while it is down.
        free = slots - ledger._used_slots[server_id]
        ledger.slot_cap[server_id] = 0
        free_subtree = ledger._free_subtree
        masked = self.masked_subtree
        ancestors = self.flat.ancestors[server_id]
        for ancestor_id in ancestors:
            free_subtree[ancestor_id] -= free
            masked[ancestor_id] += slots
        index = ledger._candidate_index
        if index is not None:
            index.touch_path(ancestors)

    def _on_up(self, server_id: int) -> None:
        """Server transitioned down -> alive: restore its capacity."""
        ledger = self.ledger
        slots = self.flat.slots[server_id]
        free = slots - ledger._used_slots[server_id]
        ledger.slot_cap[server_id] = slots
        free_subtree = ledger._free_subtree
        masked = self.masked_subtree
        ancestors = self.flat.ancestors[server_id]
        for ancestor_id in ancestors:
            free_subtree[ancestor_id] += free
            masked[ancestor_id] -= slots
        index = ledger._candidate_index
        if index is not None:
            index.touch_path(ancestors)

    def _undo(self, op: tuple) -> None:
        """Reverse one ``(OP_MASK, ...)`` journal record.

        Called by the ledger's rollback in reverse journal order, so the
        cover counts at undo time match the state right after the op
        applied and the inverse transitions are exact.
        """
        kind = op[1]
        order = self.flat.server_order
        span = self.flat.server_span
        cover = self.cover
        if kind == _FAIL:
            node_id = op[2]
            lo, hi = span[node_id]
            for position in range(lo, hi):
                server_id = order[position]
                cover[server_id] -= 1
                if cover[server_id] == 0:
                    self._on_up(server_id)
            self.failed.discard(node_id)
        else:
            cleared = op[3]
            for mark in cleared:
                lo, hi = span[mark]
                for position in range(lo, hi):
                    server_id = order[position]
                    cover[server_id] += 1
                    if cover[server_id] == 1:
                        self._on_down(server_id)
                self.failed.add(mark)
        self.version += 1


def pruned_topology(topology: Topology, failed: Iterable[int]) -> Topology:
    """The physically-rebuilt reference: ``topology`` minus ``failed``.

    Drops every node in ``failed`` (by id) together with its subtree,
    then recursively drops switches left with no children; names,
    levels, slots, capacities and nominals are preserved and fresh dense
    depth-first ids are assigned, exactly as the builders would.  This
    is the frozen reference the differential suite compares
    :class:`FailureMask` placement against (by node *name* — ids move).

    Raises :class:`TopologyError` when no server survives.
    """
    failed_set = set(failed)
    survives: dict[int, bool] = {}

    def _survives(node: Node) -> bool:
        cached = survives.get(node.node_id)
        if cached is not None:
            return cached
        if node.node_id in failed_set:
            result = False
        elif node.is_server:
            result = True
        else:
            # any() short-circuits; evaluate all children so the memo is
            # complete for the clone pass.
            result = max([_survives(child) for child in node.children])
        survives[node.node_id] = result
        return result

    if not _survives(topology.root):
        raise TopologyError("pruned topology has no surviving servers")

    next_id = 0

    def _clone(node: Node) -> Node:
        nonlocal next_id
        copy = Node(
            next_id,
            node.name,
            node.level,
            node.slots,
            node.uplink_up,
            node.uplink_down,
            node.nominal_up,
            node.nominal_down,
        )
        next_id += 1
        for child in node.children:
            if survives[child.node_id]:
                child_copy = _clone(child)
                child_copy.parent = copy
                copy.children.append(child_copy)
        return copy

    return Topology(_clone(topology.root))
