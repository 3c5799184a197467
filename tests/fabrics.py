"""Small fabrics that only the tests build, and three views of a tree.

The library builds the paper's trees (:mod:`repro.topology.builder`);
these two shapes exercise the placers and ledgers on fabrics the paper
does not simulate: a k-ary fat-tree and the single rack of Fig. 6.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import TopologyError
from repro.topology.builder import LEVEL_TOR, PodSpec, RackSpec, heterogeneous_tree
from repro.topology.tree import SERVER_LEVEL, Node, Topology, TopologyBuilder


def fat_tree(
    k: int,
    *,
    slots_per_server: int = 4,
    server_uplink: float = 1_000.0,
) -> Topology:
    """A k-ary fat-tree collapsed to its logical reservation tree.

    The canonical fat-tree has k pods of k/2 edge and k/2 aggregation
    switches, k/2 servers per edge switch, and (k/2)^2 cores, every link
    at NIC speed.  With ECMP spreading reservations evenly over the
    equal-cost paths, each edge switch's k/2 uplinks collapse to one
    logical ToR uplink of (k/2) x NIC, and each pod's (k/2)^2 core links
    collapse to one logical agg uplink of (k/2)^2 x NIC — a rearrangeably
    non-blocking fabric, i.e. 1:1 oversubscription at every tier (the
    multi-rooted counterpart of the collapsed core of
    :func:`repro.topology.builder.multi_rooted_tree`).
    """
    if k < 2 or k % 2:
        raise TopologyError("fat-tree arity k must be an even number >= 2")
    half = k // 2
    rack = RackSpec(
        servers=half,
        slots_per_server=slots_per_server,
        server_uplink=server_uplink,
        tor_uplink=half * server_uplink,
    )
    pod = PodSpec(racks=(rack,) * half, agg_uplink=half * half * server_uplink)
    return heterogeneous_tree((pod,) * k)


def single_rack(
    servers: int = 4, slots_per_server: int = 2, nic_mbps: float = 10.0
) -> Topology:
    """The tiny rack of paper Fig. 6: one ToR over ``servers`` servers."""
    tor = TopologyBuilder().switch("tor", LEVEL_TOR)
    for index in range(servers):
        server = Node(
            index + 1,
            f"srv-{index}",
            SERVER_LEVEL,
            slots_per_server,
            nic_mbps,
            nic_mbps,
        )
        TopologyBuilder.attach(tor, server)
    return Topology(tor)


def servers_under(topology: Topology, node: Node) -> Iterator[Node]:
    """All servers in the subtree rooted at ``node``, in reversed preorder
    (the order SecondNet's candidate scan tie-breaks on)."""
    flat = topology.flat
    lo, hi = flat.server_span[node.node_id]
    return (flat.node_of[i] for i in reversed(flat.server_order[lo:hi]))


def level_nodes(topology: Topology, level: int) -> tuple[Node, ...]:
    """The nodes at ``level`` (0 = servers), in preorder."""
    node_of = topology.flat.node_of
    return tuple(node_of[i] for i in topology.flat.level_ids[level])


def ancestors(node: Node) -> Iterator[Node]:
    """Walk from ``node`` to the root, both included, by parent pointers
    (the reference for ``FlatTopology.ancestors``)."""
    current: Node | None = node
    while current is not None:
        yield current
        current = current.parent
