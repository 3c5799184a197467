"""Flat array-backed view of an immutable :class:`Topology`.

The placement hot path — feasibility pre-checks, root-path availability
walks, uplink re-reservations, journal rollbacks — spends its time asking
the same few questions about tree structure: what is this node's parent,
what are its ancestors, which servers sit below it, how many slots.  The
:class:`Node` object graph answers them with attribute chases and
generator frames; at millions of queries per sweep that dominates trial
runtime.

:class:`FlatTopology` materializes the answers once per topology into
contiguous id-indexed lists:

``parent[i]`` / ``level[i]`` / ``depth[i]`` / ``slots[i]``
    Scalar structure per node id (``parent`` is ``-1`` at the root).
``cap_up[i]`` / ``cap_down[i]`` / ``nominal_up[i]`` / ``nominal_down[i]``
    Uplink capacities, so the ledger never touches a ``Node`` on its
    capacity checks.
``ancestors[i]``
    ``(i, parent, ..., root)`` — the exact sequence
    ``Topology.ancestors(node, include_self=True)`` yields.
``path_up[i]``
    ``ancestors[i]`` without the root — the uplinks that carry node
    ``i``'s traffic toward the core (``Topology.path_to_root``).
``server_span[i]`` over ``server_order``
    Every subtree's servers as one contiguous ``[lo, hi)`` slice of a
    preorder server list, replacing per-call tree walks.
``subtree_slots[i]``
    Total VM slots below node ``i``.
``level_ids[level]``
    Node ids per tree level in ``Topology.level_nodes`` order, for
    level-aggregate sums (Table 1, temporal window utilization).

Everything here is immutable and derived; all *reservation* state stays
in :class:`repro.topology.ledger.Ledger`, which allocates its own
mutable arrays with the same id indexing.  Node ids from
:class:`TopologyBuilder` are dense, so the id doubles as the array
index; sparse (but non-negative) ids simply leave unused slots.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.errors import TopologyError
from repro.topology.tree import Node, Topology

__all__ = ["FlatTopology"]


class FlatTopology:
    """Precomputed id-indexed arrays for one immutable topology."""

    __slots__ = (
        "size",
        "root_id",
        "node_of",
        "parent",
        "level",
        "depth",
        "slots",
        "is_server",
        "cap_up",
        "cap_down",
        "nominal_up",
        "nominal_down",
        "ancestors",
        "path_up",
        "server_order",
        "server_span",
        "subtree_slots",
        "server_ids",
        "children_ids",
        "level_ids",
        "num_levels",
    )

    def __init__(self, topology: Topology) -> None:
        nodes = topology.nodes
        max_id = 0
        for node in nodes:
            if node.node_id < 0:
                raise TopologyError(
                    f"flat topology requires non-negative node ids, got "
                    f"{node.node_id} on {node.name!r}"
                )
            if node.node_id > max_id:
                max_id = node.node_id
        size = max_id + 1
        self.size = size
        self.root_id = topology.root.node_id
        self.node_of: list[Node | None] = [None] * size
        self.parent = [-1] * size
        self.level = [0] * size
        self.depth = [0] * size
        self.slots = [0] * size
        self.is_server = [False] * size
        self.cap_up = [0.0] * size
        self.cap_down = [0.0] * size
        self.nominal_up = [0.0] * size
        self.nominal_down = [0.0] * size
        self.ancestors: list[tuple[int, ...]] = [()] * size
        self.path_up: list[tuple[int, ...]] = [()] * size
        self.server_span: list[tuple[int, int]] = [(0, 0)] * size
        self.subtree_slots = [0] * size
        self.children_ids: list[tuple[int, ...]] = [()] * size

        for node in nodes:
            i = node.node_id
            self.node_of[i] = node
            self.level[i] = node.level
            self.slots[i] = node.slots
            self.is_server[i] = node.is_server
            self.cap_up[i] = node.uplink_up
            self.cap_down[i] = node.uplink_down
            self.nominal_up[i] = node.nominal_up
            self.nominal_down[i] = node.nominal_down
            self.children_ids[i] = tuple(c.node_id for c in node.children)

        # One preorder pass computes ancestors, depth, server spans and
        # subtree slot totals.  Each stack entry is (node, entered):
        # first visit records the span start and pushes children; the
        # second closes the span and folds slots into every ancestor.
        server_order: list[int] = []
        stack: list[tuple[Node, bool]] = [(topology.root, False)]
        while stack:
            node, entered = stack.pop()
            i = node.node_id
            if entered:
                lo = self.server_span[i][0]
                self.server_span[i] = (lo, len(server_order))
                continue
            parent = node.parent
            if parent is None:
                self.ancestors[i] = (i,)
                self.path_up[i] = ()
            else:
                p = parent.node_id
                self.parent[i] = p
                self.depth[i] = self.depth[p] + 1
                self.ancestors[i] = (i,) + self.ancestors[p]
                self.path_up[i] = (i,) + self.path_up[p]
            self.server_span[i] = (len(server_order), len(server_order))
            stack.append((node, True))
            if node.is_server:
                server_order.append(i)
                for ancestor in self.ancestors[i]:
                    self.subtree_slots[ancestor] += node.slots
            else:
                for child in reversed(node.children):
                    stack.append((child, False))
        self.server_order = tuple(server_order)
        self.server_ids = frozenset(server_order)
        # Per-level node id slices in ``Topology.level_nodes`` order, so
        # level-aggregate consumers (Table 1 accounting, the temporal
        # ledger's window utilization) sum ids instead of walking Nodes
        # while keeping the legacy float summation order.
        self.num_levels = topology.num_levels
        self.level_ids: tuple[tuple[int, ...], ...] = tuple(
            tuple(node.node_id for node in topology.level_nodes(level))
            for level in range(self.num_levels)
        )

    # ------------------------------------------------------------------
    # structure queries (Node-level convenience over the arrays)
    # ------------------------------------------------------------------
    def servers_under_id(self, node_id: int) -> Sequence[int]:
        """Server ids in the subtree under ``node_id``, in preorder."""
        lo, hi = self.server_span[node_id]
        return self.server_order[lo:hi]

    def iter_servers_under(self, node_id: int) -> Iterator[Node]:
        """Servers under ``node_id`` in the legacy tree-walk order.

        The seed implementation yielded servers via an explicit stack,
        i.e. in *reversed* preorder; SecondNet's candidate scan
        tie-breaks on that order, so it is part of the behavior
        contract.
        """
        lo, hi = self.server_span[node_id]
        order = self.server_order
        node_of = self.node_of
        for index in range(hi - 1, lo - 1, -1):
            yield node_of[order[index]]  # type: ignore[misc]

    def lca_id(self, a: int, b: int) -> int:
        """Lowest common ancestor of two node ids."""
        parent = self.parent
        depth = self.depth
        while depth[a] > depth[b]:
            a = parent[a]
        while depth[b] > depth[a]:
            b = parent[b]
        while a != b:
            a = parent[a]
            b = parent[b]
        return a
