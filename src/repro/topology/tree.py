"""Tree-shaped datacenter topologies (paper §4, §5 simulation setup).

A topology is a rooted tree.  Level 0 nodes are servers (they hold VM
slots); higher levels are switches (ToR, aggregation, core).  Every
non-root node has an *uplink* to its parent with independent capacities in
the two directions (``up`` = toward the root, ``down`` = toward the
leaves).  Capacities may be ``math.inf`` for the idealized unlimited
topology used in Table 1.

The tree is immutable after construction; all mutable reservation state
lives in :class:`repro.topology.ledger.Ledger`.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import TopologyError

__all__ = ["Node", "Topology", "SERVER_LEVEL"]

SERVER_LEVEL = 0


class Node:
    """One tree node: a server (level 0) or a switch (level >= 1)."""

    __slots__ = (
        "node_id",
        "name",
        "level",
        "parent",
        "children",
        "slots",
        "uplink_up",
        "uplink_down",
        "nominal_up",
        "nominal_down",
    )

    def __init__(
        self,
        node_id: int,
        name: str,
        level: int,
        slots: int,
        uplink_up: float,
        uplink_down: float,
        nominal_up: float | None = None,
        nominal_down: float | None = None,
    ) -> None:
        if level < 0:
            raise TopologyError(f"node level must be >= 0, got {level}")
        if level == SERVER_LEVEL and slots <= 0:
            raise TopologyError(f"server {name!r} must have positive slots")
        if level > SERVER_LEVEL and slots != 0:
            raise TopologyError(f"switch {name!r} cannot have VM slots")
        for capacity, label in ((uplink_up, "up"), (uplink_down, "down")):
            if capacity < 0:
                raise TopologyError(f"{name!r}: {label} capacity must be >= 0")
        self.node_id = node_id
        self.name = name
        self.level = level
        self.parent: Node | None = None
        self.children: list[Node] = []
        self.slots = slots
        self.uplink_up = uplink_up
        self.uplink_down = uplink_down
        # Nominal capacities are what the heuristics reason about; they
        # equal the enforced capacities except in the Table 1 idealized
        # topology, which enforces nothing but keeps realistic nominals.
        self.nominal_up = uplink_up if nominal_up is None else nominal_up
        self.nominal_down = uplink_down if nominal_down is None else nominal_down

    @property
    def is_server(self) -> bool:
        return self.level == SERVER_LEVEL

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.name!r}, level={self.level})"


class Topology:
    """An immutable rooted tree of :class:`Node` objects.

    Build one with :class:`TopologyBuilder` (see ``repro.topology.builder``
    for ready-made datacenter shapes).
    """

    def __init__(self, root: Node) -> None:
        if not root.is_root:
            raise TopologyError("topology root must have no parent")
        self._root = root
        self._by_id: dict[int, Node] = {}
        self._servers: list[Node] = []
        self._levels: dict[int, list[Node]] = {}
        self._flat = None
        self._total_slots: int | None = None
        stack = [root]
        while stack:
            node = stack.pop()
            if node.node_id in self._by_id:
                raise TopologyError(f"duplicate node id {node.node_id}")
            self._by_id[node.node_id] = node
            self._levels.setdefault(node.level, []).append(node)
            if node.is_server:
                if node.children:
                    raise TopologyError(f"server {node.name!r} cannot have children")
                self._servers.append(node)
            else:
                if not node.children:
                    raise TopologyError(f"switch {node.name!r} has no children")
                for child in reversed(node.children):
                    if child.level != node.level - 1:
                        raise TopologyError(
                            f"child {child.name!r} of {node.name!r} must be one "
                            f"level down"
                        )
                    stack.append(child)
        self._nodes = [self._by_id[i] for i in sorted(self._by_id)]

    @property
    def flat(self) -> "FlatTopology":
        """The id-indexed array view (built once, on first use).

        Precomputed ancestors, root paths, server spans and subtree slot
        totals; the ledger and the placers drive their inner loops off
        these arrays instead of walking ``Node`` pointers.
        """
        if self._flat is None:
            from repro.topology.flat import FlatTopology

            self._flat = FlatTopology(self)
        return self._flat

    @property
    def root(self) -> Node:
        return self._root

    @property
    def nodes(self) -> Sequence[Node]:
        return tuple(self._nodes)

    @property
    def servers(self) -> Sequence[Node]:
        return tuple(self._servers)

    @property
    def num_levels(self) -> int:
        return self._root.level + 1

    @property
    def total_slots(self) -> int:
        # Cached: the topology is immutable and the utilization sampler
        # reads this after every admission.
        if self._total_slots is None:
            self._total_slots = sum(server.slots for server in self._servers)
        return self._total_slots

    def node(self, node_id: int) -> Node:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise TopologyError(f"no node with id {node_id}") from None

    def level_nodes(self, level: int) -> Sequence[Node]:
        """All nodes at a given level (0 = servers, root at the top)."""
        if level not in self._levels:
            raise TopologyError(f"no nodes at level {level}")
        return tuple(self._levels[level])

    def describe(self) -> str:
        """A short human-readable summary used by examples and the CLI."""
        lines = [f"topology: {len(self._servers)} servers, {self.total_slots} slots"]
        for level in sorted(self._levels, reverse=True):
            nodes = self._levels[level]
            sample = nodes[0]
            capacity = (
                "inf"
                if math.isinf(sample.uplink_up)
                else f"{sample.uplink_up:.0f} Mbps"
            )
            kind = "server" if level == SERVER_LEVEL else "switch"
            uplink = "root" if sample.is_root else f"uplink {capacity}"
            lines.append(f"  level {level}: {len(nodes)} {kind}(s), {uplink}")
        return "\n".join(lines)


class TopologyBuilder:
    """Incremental builder assigning dense depth-first node ids."""

    def __init__(self) -> None:
        self._next_id = 0

    def _take_id(self) -> int:
        node_id = self._next_id
        self._next_id += 1
        return node_id

    def switch(self, name: str, level: int) -> Node:
        """A switch with unlimited uplinks: the root of a tree."""
        if level <= SERVER_LEVEL:
            raise TopologyError("switch level must be >= 1")
        return Node(self._take_id(), name, level, 0, math.inf, math.inf)

    @staticmethod
    def attach(parent: Node, child: Node) -> None:
        if child.parent is not None:
            raise TopologyError(f"node {child.name!r} already has a parent")
        child.parent = parent
        parent.children.append(child)
