"""The full-scan reference for the candidate index.

:class:`ScanCandidates` answers every lookup of
:class:`repro.placement.candidates.CandidateIndex` by scanning the live
ledger from scratch: the per-level scan the placers' lowest-subtree
search was written as, and SecondNet's per-VM rebuild and used-desc sort
of a rack's servers.  :func:`scan_rack_order` is SecondNet's rack sweep
before the ``rack_order`` kernel shared costs between racks: one
per-peer sum per rack, then a stable sort by cost.

:func:`full_scan` runs a placer on both for the length of a ``with``
block, so a lockstep suite can compare an indexed run against exactly
the scan path, decision for decision.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

from repro import _kernels

__all__ = ["ScanCandidates", "full_scan", "scan_rack_order", "scan_unless_indexed"]


class ScanCandidates:
    """The candidate index's lookups, each a full scan of the ledger."""

    def __init__(self, ledger) -> None:
        self.ledger = ledger

    def touch_path(self, ancestors) -> None:
        """Nothing to invalidate: every lookup reads the ledger afresh."""

    def track_racks(self) -> None:
        """Nothing to maintain: racks are rebuilt per lookup."""

    def best_fit(self, level, size, accept=None):
        """First node in level order with the fewest free slots ``>= size``."""
        free_slots_id = self.ledger.free_slots_id
        best = None
        best_free = 0
        for node in self.ledger.topology.level_nodes(level):
            free = free_slots_id(node.node_id)
            if free < size:
                continue
            if accept is not None and not accept(node.node_id):
                continue
            if best is None or free < best_free:
                best = node.node_id
                best_free = free
        return best

    def rack_candidates(self, rack_id):
        """The rack's servers below their (mask-aware) slot capacity, as
        ``(-used, walk position, id)``, fullest first and stable in
        ``servers_under`` order."""
        ledger = self.ledger
        topology = ledger.topology
        cap = ledger.slot_cap
        entries = [
            (-ledger.used_slots(server), position, server.node_id)
            for position, server in enumerate(
                topology.servers_under(topology.node(rack_id))
            )
            if ledger.used_slots(server) < cap[server.node_id]
        ]
        entries.sort()
        return entries


def scan_rack_order(parent, free_subtree, rack_ids, peers):
    """Racks with free slots, stably sorted by their pipe cost to ``peers``."""

    def rack_cost(rack_id):
        pod_id = parent[rack_id]
        cost = 0.0
        for peer_id, bandwidth, _ in peers:
            peer_rack = parent[peer_id]
            if peer_rack == rack_id:
                cost += bandwidth * 2
            elif parent[peer_rack] == pod_id:
                cost += bandwidth * 4
            else:
                cost += bandwidth * 6
        return cost

    return sorted(
        (rack_id for rack_id in rack_ids if free_subtree[rack_id] > 0),
        key=rack_cost,
    )


@contextmanager
def full_scan(placer):
    """Run ``placer`` on the full-scan reference inside the block.

    The placer and its ledger both hold a :class:`ScanCandidates` from
    here on, and ``_kernels.rack_order`` is :func:`scan_rack_order`
    until the block exits.
    """
    scan = ScanCandidates(placer.ledger)
    placer._index = placer.ledger._candidate_index = scan
    rack_order = _kernels.rack_order
    _kernels.rack_order = scan_rack_order
    try:
        yield
    finally:
        _kernels.rack_order = rack_order


def scan_unless_indexed(placer, use_index):
    """:func:`full_scan` for the reference run, nothing for the indexed one."""
    return nullcontext() if use_index else full_scan(placer)
