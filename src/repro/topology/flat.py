"""The id-indexed arrays of one immutable tree: the topology's only index.

:class:`FlatTopology` is built once per :class:`repro.topology.tree.Topology`,
by the one validating preorder walk of its ``Node`` tree, and every
structural question after that — the placers' and ledgers' hot loops as
much as ``Topology.servers`` / ``nodes`` / ``node`` — reads these
contiguous id-indexed lists instead of chasing ``Node`` pointers:

``node_of[i]``
    The ``Node`` record with id ``i`` (``None`` for an unused id), for
    read-outs that print names.
``parent[i]`` / ``level[i]`` / ``depth[i]`` / ``slots[i]``
    Scalar structure per node id (``parent`` is ``-1`` at the root).
``cap_up[i]`` / ``cap_down[i]`` / ``nominal_up[i]`` / ``nominal_down[i]``
    Uplink capacities, so the ledger never touches a ``Node`` on its
    capacity checks.
``ancestors[i]``
    ``(i, parent, ..., root)`` — node ``i`` and every node above it.
``path_up[i]``
    ``ancestors[i]`` without the root — the uplinks that carry node
    ``i``'s traffic toward the core.
``server_span[i]`` over ``server_order``
    Every subtree's servers as one contiguous ``[lo, hi)`` slice of the
    preorder server list, replacing per-call tree walks.
``subtree_slots[i]``
    Total VM slots below node ``i``.
``children_ids[i]``
    Node ``i``'s children in attachment order.
``level_ids[level]``
    Node ids per tree level in preorder, for level scans and
    level-aggregate sums (Table 1, temporal window utilization).

Everything here is immutable and derived; all *reservation* state stays
in :class:`repro.topology.ledger.Ledger`, which allocates its own
mutable arrays with the same id indexing.  Node ids from
:class:`repro.topology.tree.TopologyBuilder` are dense, so the id
doubles as the array index; sparse (but non-negative) ids simply leave
unused slots.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import TopologyError

if TYPE_CHECKING:
    from repro.topology.tree import Node

__all__ = ["FlatTopology"]


def _preorder(root: Node) -> list[Node]:
    """The tree's nodes in preorder, checking it is a well-formed tree."""
    if root.parent is not None:
        raise TopologyError("topology root must have no parent")
    seen: set[int] = set()
    order: list[Node] = []
    stack = [root]
    while stack:
        node = stack.pop()
        node_id = node.node_id
        if node_id < 0:
            raise TopologyError(
                f"flat topology requires non-negative node ids, got "
                f"{node_id} on {node.name!r}"
            )
        if node_id in seen:
            raise TopologyError(f"duplicate node id {node_id}")
        seen.add(node_id)
        order.append(node)
        if node.is_server:
            if node.children:
                raise TopologyError(f"server {node.name!r} cannot have children")
            continue
        if not node.children:
            raise TopologyError(f"switch {node.name!r} has no children")
        for child in reversed(node.children):
            if child.level != node.level - 1:
                raise TopologyError(
                    f"child {child.name!r} of {node.name!r} must be one "
                    f"level down"
                )
            stack.append(child)
    return order


class FlatTopology:
    """Precomputed id-indexed arrays for one immutable tree."""

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

    def __init__(self, root: Node) -> None:
        order = _preorder(root)
        size = max(node.node_id for node in order) + 1
        self.size = size
        self.root_id = root.node_id
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
        self.num_levels = root.level + 1
        levels: list[list[int]] = [[] for _ in range(self.num_levels)]

        # Preorder puts every parent before its children, so a node's
        # ancestors are known when it is reached, and a subtree's servers
        # are one run of ``server_order``: from where the walk reached the
        # subtree's root to its last server.
        server_order: list[int] = []
        span = self.server_span
        for node in order:
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
            levels[node.level].append(i)
            parent = node.parent
            if parent is None:
                self.ancestors[i] = (i,)
            else:
                p = parent.node_id
                self.parent[i] = p
                self.depth[i] = self.depth[p] + 1
                self.ancestors[i] = (i,) + self.ancestors[p]
                self.path_up[i] = (i,) + self.path_up[p]
            span[i] = (len(server_order), len(server_order))
            if node.is_server:
                server_order.append(i)
                end = len(server_order)
                for ancestor in self.ancestors[i]:
                    self.subtree_slots[ancestor] += node.slots
                    span[ancestor] = (span[ancestor][0], end)
        self.server_order = tuple(server_order)
        self.server_ids = frozenset(server_order)
        self.level_ids: tuple[tuple[int, ...], ...] = tuple(map(tuple, levels))
