"""Checkers of a :class:`~repro.placement.candidates.CandidateIndex`.

Each rebuilds an order from the ledger's current slot arrays and
compares it with the index's maintained one, or reads its dirty bits.
"""

from __future__ import annotations


def pending_dirty(index) -> dict[int, frozenset[int]]:
    """Currently-dirty node ids per level (empty once repaired)."""
    return {
        level: frozenset(marked)
        for level, marked in enumerate(index._level_dirty)
        if marked
    }


def verify(index) -> None:
    """Assert every built level list matches a from-scratch rebuild."""
    free_of = index.ledger.free_slots_id
    pos = index._level_pos
    for level, entries in enumerate(index._level_entries):
        if entries is None:
            continue
        expected = sorted(
            (free_of(node_id), pos[node_id], node_id)
            for node_id in index.flat.level_ids[level]
        )
        if index._level_ready(level) != expected:
            raise AssertionError(
                f"candidate index level {level} diverged from rebuild"
            )


def verify_racks(index) -> None:
    """Assert every built rack list matches a from-scratch rebuild."""
    used_of = index.ledger.used_slots_id
    cap = index.ledger.slot_cap
    enum_pos = index._enum_pos
    span = index.flat.server_span
    for rack_id in list(index._rack_entries):
        lo, hi = span[rack_id]
        expected = sorted(
            (-used_of(server_id), enum_pos[server_id], server_id)
            for server_id in index.flat.server_order[lo:hi]
            if used_of(server_id) < cap[server_id]
        )
        if index.rack_candidates(rack_id) != expected:
            raise AssertionError(
                f"candidate index rack {rack_id} diverged from rebuild"
            )
