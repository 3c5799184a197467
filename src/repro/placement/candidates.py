"""Incremental candidate index with dirty-bit invalidation.

Every placer's outer loop asks the same question — "which subtree at
level L can host this request?"  A full scan would visit every node at
the level and re-derive its free-slot key, even though a single
placement only changes the keys on a handful of root-paths.  The
:class:`CandidateIndex` keeps the per-level candidate order *maintained*
between lookups, and it is the only way any placer answers the
question:

``level order``
    One sorted list per tree level of ``(free_slots, level_pos,
    node_id)`` where ``level_pos`` is the node's position in its
    level's preorder (``FlatTopology.level_ids``).  Iterating a slice of this list
    reproduces exactly the best-fit winner the full scan would pick
    (minimal sufficient free slots, first in level order on ties) — see
    :meth:`best_fit`.

``rack order``
    One sorted list per rack (level-1 node) of its non-full servers as
    ``(-used_slots, enum_pos, server_id)``, where ``enum_pos`` is the
    server's position in the rack's servers walked in reversed preorder.
    Iterating it reproduces SecondNet's per-VM candidate list — a stable
    ``sort(key=used_slots, reverse=True)`` over that walk — without
    rebuilding or re-sorting anything per VM.  Built only when a placer
    calls :meth:`track_racks`.

Invalidation is *lazy* via per-node dirty bits: every slot mutation
funnels through ``ReservationLedger._apply_slots`` (reserve, release
and journal rollback alike), which hands the touched server's ancestor
tuple to :meth:`touch_path`; the marked nodes are re-scored on the next
lookup of their level (or rack) and everything else is reused as-is.
Because the index is a pure function of the ledger's *current* slot
arrays, rollbacks need no special handling — the rolled-back path is
simply dirty again and repairs to the restored values.

Bandwidth is deliberately **not** indexed: candidate keys depend only on
slot state, and bandwidth feasibility (CloudMirror's root-path check,
SecondNet's per-pipe check) is evaluated against the live ledger by the
caller's accept filter during iteration.  A ledger no placer has
attached an index to pays one ``is None`` test per slot mutation and
nothing else.  The full-scan reference every answer is checked against
lives with the tests (``tests/placement/scan_candidates.py``).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable

from repro.obs import core as _obs

__all__ = ["CandidateIndex"]


class CandidateIndex:
    """Maintained candidate orderings over one slot-accounting ledger."""

    __slots__ = (
        "ledger",
        "flat",
        "_level_pos",
        "_level_entries",
        "_level_dirty",
        "_entry_free",
        "_track_racks",
        "_rack_entries",
        "_rack_dirty",
        "_rack_key",
        "_enum_pos",
    )

    def __init__(self, ledger) -> None:
        # ``ledger`` is any ReservationLedger: it provides
        # ``flat``, ``free_slots_id`` and ``used_slots_id``.
        self.ledger = ledger
        flat = ledger.flat
        self.flat = flat
        size = flat.size
        num_levels = flat.num_levels
        # Node position within its level, in preorder (the tie-break the
        # full scan uses).
        self._level_pos = [0] * size
        for ids in flat.level_ids:
            for pos, node_id in enumerate(ids):
                self._level_pos[node_id] = pos
        # Per-level sorted entries, built lazily on first lookup.
        self._level_entries: list[list[tuple[int, int, int]] | None] = [
            None
        ] * num_levels
        self._level_dirty: list[set[int]] = [set() for _ in range(num_levels)]
        # The free-slot key each node currently carries inside its level
        # list (needed to locate the stale entry during repair).
        self._entry_free = [0] * size
        # Rack-granularity server lists (SecondNet), off until requested.
        self._track_racks = False
        self._rack_entries: dict[int, list[tuple[int, int, int]]] = {}
        self._rack_dirty: dict[int, set[int]] = {}
        self._rack_key = [-1] * size
        self._enum_pos = [0] * size

    # ------------------------------------------------------------------
    # invalidation (driven by ReservationLedger._apply_slots)
    # ------------------------------------------------------------------
    def touch_path(self, ancestors: tuple[int, ...]) -> None:
        """Mark a mutated server's root-path dirty.

        ``ancestors`` is ``flat.ancestors[server_id]`` — the server
        itself first, the root last — exactly the nodes whose free-slot
        keys the mutation changed.
        """
        level = self.flat.level
        dirty = self._level_dirty
        for node_id in ancestors:
            dirty[level[node_id]].add(node_id)
        if self._track_racks and len(ancestors) > 1:
            rack_id = ancestors[1]
            marked = self._rack_dirty.get(rack_id)
            if marked is None:
                self._rack_dirty[rack_id] = {ancestors[0]}
            else:
                marked.add(ancestors[0])

    # ------------------------------------------------------------------
    # level-order lookups (CloudMirror / Oktopus subtree search)
    # ------------------------------------------------------------------
    def _level_ready(self, level: int) -> list[tuple[int, int, int]]:
        """The level's sorted entries, repairing any dirty nodes first."""
        entries = self._level_entries[level]
        free_of = self.ledger.free_slots_id
        if entries is None:
            c = _obs.counters
            if c is not None:
                c.bump("candidates.level_builds")
            pos = self._level_pos
            entry_free = self._entry_free
            entries = []
            for node_id in self.flat.level_ids[level]:
                free = free_of(node_id)
                entry_free[node_id] = free
                entries.append((free, pos[node_id], node_id))
            entries.sort()
            self._level_entries[level] = entries
            self._level_dirty[level].clear()
            return entries
        dirty = self._level_dirty[level]
        if dirty:
            c = _obs.counters
            if c is not None:
                c.bump("candidates.level_repairs")
                c.bump("candidates.level_repaired_nodes", len(dirty))
            pos = self._level_pos
            entry_free = self._entry_free
            for node_id in dirty:
                old = entry_free[node_id]
                new = free_of(node_id)
                if new == old:
                    continue
                del entries[bisect_left(entries, (old, pos[node_id], node_id))]
                insort(entries, (new, pos[node_id], node_id))
                entry_free[node_id] = new
            dirty.clear()
        return entries

    def best_fit(
        self,
        level: int,
        size: int,
        accept: Callable[[int], bool] | None = None,
    ) -> int | None:
        """Best-fit candidate at ``level``: the id of the node with the
        fewest free slots ``>= size`` (first in level order on ties)
        that passes ``accept``, or None.

        Entries are sorted by ``(free, level_pos)``, so the first
        acceptable entry at or past the bisection point *is* the node
        the full scan's strict ``free < best_free`` update would have
        kept.
        """
        entries = self._level_ready(level)
        start = bisect_left(entries, (size, -1, -1))
        if accept is None:
            if start < len(entries):
                return entries[start][2]
            return None
        for index in range(start, len(entries)):
            node_id = entries[index][2]
            if accept(node_id):
                return node_id
        return None

    # ------------------------------------------------------------------
    # rack-order lookups (SecondNet server candidates)
    # ------------------------------------------------------------------
    def track_racks(self) -> None:
        """Start maintaining per-rack server lists (idempotent).

        Until this is called, :meth:`touch_path` skips the rack-side
        bookkeeping entirely, so level-only users pay nothing for it.
        """
        if self._track_racks:
            return
        order_index = {
            server_id: position
            for position, server_id in enumerate(self.flat.server_order)
        }
        enum_pos = self._enum_pos
        span = self.flat.server_span
        for rack_id in self.flat.level_ids[1] if self.flat.num_levels > 1 else ():
            lo, hi = span[rack_id]
            for server_id in self.flat.server_order[lo:hi]:
                enum_pos[server_id] = (hi - 1) - order_index[server_id]
        self._track_racks = True

    def rack_candidates(self, rack_id: int) -> list[tuple[int, int, int]]:
        """The rack's non-full servers as sorted ``(-used, enum_pos, id)``.

        Iteration order equals the per-VM rebuild — a stable
        ``sort(key=used_slots, reverse=True)`` over the rack's servers in
        reversed preorder.  The returned list is live: callers must
        not mutate slot state while iterating it (none do — SecondNet
        commits only after a server is chosen).
        """
        entries = self._rack_entries.get(rack_id)
        used_of = self.ledger.used_slots_id
        # Effective capacities, not ``flat.slots``: a failure mask zeroes
        # a down server's capacity without touching ``used``, and the
        # entry key must notice eligibility flips either way.
        cap = self.ledger.slot_cap
        enum_pos = self._enum_pos
        rack_key = self._rack_key
        if entries is None:
            c = _obs.counters
            if c is not None:
                c.bump("candidates.rack_builds")
            lo, hi = self.flat.server_span[rack_id]
            entries = []
            for server_id in self.flat.server_order[lo:hi]:
                used = used_of(server_id)
                if used < cap[server_id]:
                    entries.append((-used, enum_pos[server_id], server_id))
                    rack_key[server_id] = used
                else:
                    rack_key[server_id] = -1
            entries.sort()
            self._rack_entries[rack_id] = entries
            self._rack_dirty.pop(rack_id, None)
            return entries
        dirty = self._rack_dirty.pop(rack_id, None)
        if dirty:
            c = _obs.counters
            if c is not None:
                c.bump("candidates.rack_repairs")
                c.bump("candidates.rack_repaired_servers", len(dirty))
            for server_id in dirty:
                old = rack_key[server_id]
                used = used_of(server_id)
                new = used if used < cap[server_id] else -1
                if new == old:
                    continue
                if old >= 0:
                    del entries[
                        bisect_left(
                            entries, (-old, enum_pos[server_id], server_id)
                        )
                    ]
                if new >= 0:
                    insort(entries, (-new, enum_pos[server_id], server_id))
                rack_key[server_id] = new
        return entries

    # ------------------------------------------------------------------
    # introspection (tests)
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Entry counts: the index's live footprint, O(topology) always.

        Levels build once and repair in place (del/insort), so these
        numbers are a function of the topology, not of how many events
        have flowed through the ledger (the bench reports their sum as
        ``placement.candidates.index_entries``).
        """
        return {
            "levels_built": sum(
                1 for entries in self._level_entries if entries is not None
            ),
            "level_entries": sum(
                len(entries)
                for entries in self._level_entries
                if entries is not None
            ),
            "racks_built": len(self._rack_entries),
            "rack_entries": sum(
                len(entries) for entries in self._rack_entries.values()
            ),
        }
