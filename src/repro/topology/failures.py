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
* every ``fail`` appends one journal record, ``(OP_MASK, node_id)``,
  so a ledger rollback restores failure state exactly — interleaved
  with slot and bandwidth ops, in reverse order.

The mask is *placement-equivalent to physically pruning the topology*:
a down server contributes 0 free slots and 0 slot capacity, which is
indistinguishable from being absent for every candidate ordering,
feasibility check and equivalence-class dedup key in the four placers.
``tests/failures/`` pins that claim with a differential lockstep suite
against ``tests/failures/pruned_topology.py``, a physical rebuild of the
tree without the failed nodes.

Semantics:

* failing a **server** downs that server;
* failing a **switch** downs every server in its subtree (the tree has
  no alternative path around a dead switch);
* failing a **link** (a node's uplink toward its parent) disconnects
  the node's subtree, which is placement-equivalent to failing the node
  itself — :meth:`FailureMask.fail_link` records the same mark, and the
  distinction lives in the caller's metrics, not the mask.

A mark is cleared only by rolling back the journal that recorded it; a
server stays down while any mark still covers it.

Bandwidth columns are left untouched: no reservation can involve a
failed subtree (placement never lands there, and victims release their
whole allocation), so the mask never needs to edit ``cap_up``/
``cap_down``.
"""

from __future__ import annotations

from repro.errors import TopologyError
from repro.topology.ledger import OP_MASK, Journal

__all__ = ["FailureMask"]


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
        # Bumped on every fail and undo; memoized derived state
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
    def is_down(self, server_id: int) -> bool:
        """Is this server covered by any failure mark?"""
        return self.cover[server_id] > 0

    def down_servers(self) -> tuple[int, ...]:
        """All covered server ids, in preorder."""
        cover = self.cover
        return tuple(i for i in self.flat.server_order if cover[i])

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
        journal.ops.append((OP_MASK, node_id))
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
        """Reverse one ``(OP_MASK, node_id)`` journal record.

        Called by the ledger's rollback in reverse journal order, so the
        cover counts at undo time match the state right after the op
        applied and the inverse transitions are exact.
        """
        node_id = op[1]
        lo, hi = self.flat.server_span[node_id]
        order = self.flat.server_order
        cover = self.cover
        for position in range(lo, hi):
            server_id = order[position]
            cover[server_id] -= 1
            if cover[server_id] == 0:
                self._on_up(server_id)
        self.failed.discard(node_id)
        self.version += 1
