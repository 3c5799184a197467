"""The physical-rebuild reference for :class:`repro.topology.failures.FailureMask`.

A failure mask claims to place exactly as if the failed nodes were gone
from the tree.  :func:`pruned_topology` builds that tree, so the lockstep
suite can compare a masked ledger against a fresh one on it, decision
for decision.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import TopologyError
from repro.topology.tree import Node, Topology


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
