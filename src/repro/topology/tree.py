"""Tree-shaped datacenter topologies (paper §4, §5 simulation setup).

A topology is a rooted tree.  Level 0 nodes are servers (they hold VM
slots); higher levels are switches (ToR, aggregation, core).  Every
non-root node has an *uplink* to its parent with independent capacities in
the two directions (``up`` = toward the root, ``down`` = toward the
leaves).  Capacities may be ``math.inf`` for the idealized unlimited
topology used in Table 1.

The tree is immutable after construction.  :class:`Topology` walks it
once, into the id-indexed arrays of
:class:`repro.topology.flat.FlatTopology`, and answers every query from
them.  Past that point the node id is the handle: the placers, the
allocations and the ledgers' mutations pass ids, and a :class:`Node` is
the record the builders create and the read-outs that print names use.
All mutable reservation state lives in
:class:`repro.topology.ledger.Ledger`.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import TopologyError
from repro.topology.flat import FlatTopology

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
    for ready-made datacenter shapes).  The constructor walks the tree
    once, into :attr:`flat` (:class:`repro.topology.flat.FlatTopology`),
    which validates it; every view below reads those arrays.
    """

    __slots__ = ("root", "flat")

    def __init__(self, root: Node) -> None:
        self.root = root
        self.flat = FlatTopology(root)

    @property
    def nodes(self) -> Sequence[Node]:
        """Every node, by ascending id."""
        return tuple(node for node in self.flat.node_of if node is not None)

    @property
    def servers(self) -> Sequence[Node]:
        """The servers in preorder."""
        node_of = self.flat.node_of
        return tuple(node_of[i] for i in self.flat.server_order)

    @property
    def num_levels(self) -> int:
        return self.flat.num_levels

    @property
    def total_slots(self) -> int:
        flat = self.flat
        return flat.subtree_slots[flat.root_id]

    def node(self, node_id: int) -> Node:
        flat = self.flat
        node = flat.node_of[node_id] if 0 <= node_id < flat.size else None
        if node is None:
            raise TopologyError(f"no node with id {node_id}")
        return node

    def describe(self) -> str:
        """A short human-readable summary used by examples and the CLI."""
        flat = self.flat
        lines = [
            f"topology: {len(flat.server_order)} servers, {self.total_slots} slots"
        ]
        for level in reversed(range(flat.num_levels)):
            ids = flat.level_ids[level]
            sample = flat.node_of[ids[0]]
            capacity = (
                "inf"
                if math.isinf(sample.uplink_up)
                else f"{sample.uplink_up:.0f} Mbps"
            )
            kind = "server" if level == SERVER_LEVEL else "switch"
            uplink = "root" if sample.is_root else f"uplink {capacity}"
            lines.append(f"  level {level}: {len(ids)} {kind}(s), {uplink}")
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
