"""End-to-end guarantee validation: placements vs. actual traffic.

Eq. 1 promises that the bandwidth reserved on every uplink suffices for
*any* traffic matrix consistent with the TAG.  This module closes the
loop operationally:

1. :func:`sample_admissible_matrix` draws a random VM-to-VM rate matrix
   that respects every TAG guarantee (per-VM per-edge send/receive caps —
   the traffic a tenant is entitled to push),
2. :func:`link_loads` routes it over the tree through the tenant's
   actual placement,
3. :func:`validate_allocation` asserts no uplink carries more than the
   tenant's reservation on it.

Used by integration tests as a randomized proof that the reservation
math and the placement bookkeeping agree; any overload would mean a
guarantee that admission control sold but the network cannot deliver.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.constants import EPSILON
from repro.core.tag import Tag
from repro.errors import SimulationError
from repro.topology.tree import Node

__all__ = [
    "VmIndex",
    "sample_admissible_matrix",
    "link_loads",
    "validate_allocation",
]


@dataclass(frozen=True)
class VmIndex:
    """Dense VM numbering for one placed tenant: VM i -> (tier, server)."""

    tiers: tuple[str, ...]
    servers: tuple[Node, ...]

    @property
    def count(self) -> int:
        return len(self.tiers)

    @classmethod
    def from_allocation(cls, allocation) -> "VmIndex":
        topology = allocation.ledger.topology
        tiers: list[str] = []
        servers: list[Node] = []
        for server_id, counts in sorted(allocation.iter_server_placements()):
            server = topology.node(server_id)
            for tier, count in sorted(counts.items()):
                tiers.extend([tier] * count)
                servers.extend([server] * count)
        return cls(tuple(tiers), tuple(servers))


def sample_admissible_matrix(
    tag: Tag, index: VmIndex, rng: np.random.Generator, *, intensity: float = 1.0
) -> np.ndarray:
    """A random VM-rate matrix consistent with the TAG's guarantees.

    For each edge ``(u, v)`` every u-VM spreads at most ``S_e *
    intensity`` over the v-VMs and every v-VM accepts at most ``R_e *
    intensity``; the per-edge matrix is scaled down until both sides'
    caps hold (the tenant cannot demand more than its guarantees).
    Self-loops are handled the same way among the tier's VMs.
    """
    if not 0.0 <= intensity <= 1.0:
        raise SimulationError("intensity must be in [0, 1]")
    n = index.count
    members: dict[str, list[int]] = defaultdict(list)
    for vm, tier in enumerate(index.tiers):
        members[tier].append(vm)
    matrix = np.zeros((n, n))
    for edge in tag.iter_edges():
        sources = members.get(edge.src, [])
        if edge.is_self_loop:
            destinations = sources
        else:
            destinations = members.get(edge.dst, [])
        if not sources or not destinations:
            continue
        block = rng.random((len(sources), len(destinations)))
        if edge.is_self_loop and len(sources) > 1:
            np.fill_diagonal(block, 0.0)
        elif edge.is_self_loop:
            continue
        # Scale rows to the send cap, then columns to the receive cap.
        row_sums = block.sum(axis=1, keepdims=True)
        row_sums[row_sums == 0.0] = 1.0
        block = block / row_sums * edge.send * intensity
        col_sums = block.sum(axis=0, keepdims=True)
        over = np.maximum(col_sums / max(edge.recv * intensity, 1e-12), 1.0)
        block = block / over
        for i, src_vm in enumerate(sources):
            for j, dst_vm in enumerate(destinations):
                if src_vm != dst_vm:
                    matrix[src_vm, dst_vm] += block[i, j]
    return matrix


def link_loads(
    index: VmIndex, matrix: np.ndarray
) -> dict[int, tuple[float, float]]:
    """Per-uplink ``(up, down)`` load when the matrix crosses the tree."""
    loads: dict[int, list[float]] = defaultdict(lambda: [0.0, 0.0])
    n = index.count
    for src in range(n):
        for dst in range(n):
            rate = matrix[src, dst]
            if rate <= 0.0:
                continue
            src_server = index.servers[src]
            dst_server = index.servers[dst]
            if src_server is dst_server:
                continue
            src_ancestors: dict[int, Node] = {}
            node: Node | None = src_server
            while node is not None:
                src_ancestors[node.node_id] = node
                node = node.parent
            # Destination side up to (excluding) the LCA: down direction.
            node = dst_server
            while node is not None and node.node_id not in src_ancestors:
                loads[node.node_id][1] += rate
                node = node.parent
            lca_id = node.node_id if node is not None else None
            # Source side up to (excluding) the LCA: up direction.
            node = src_server
            while node is not None and node.node_id != lca_id:
                loads[node.node_id][0] += rate
                node = node.parent
    return {k: (v[0], v[1]) for k, v in loads.items()}


def validate_allocation(
    allocation, *, samples: int = 5, seed: int = 0
) -> None:
    """Assert the allocation's reservations cover random admissible traffic.

    Raises ``AssertionError`` naming the first overloaded uplink.  The
    tolerance is the repo-wide capacity epsilon, so the validator and
    the ledger agree on what "fits".
    """
    index = VmIndex.from_allocation(allocation)
    if index.count == 0:
        return
    rng = np.random.default_rng(seed)
    topology = allocation.ledger.topology
    for _ in range(samples):
        matrix = sample_admissible_matrix(allocation.tag, index, rng)
        for node_id, (up, down) in link_loads(index, matrix).items():
            node = topology.node(node_id)
            reserved = allocation.reserved_on(node_id)
            assert up <= reserved.out + EPSILON, (
                f"uplink {node.name}: traffic {up:.3f} exceeds the "
                f"reservation {reserved.out:.3f}"
            )
            assert down <= reserved.into + EPSILON, (
                f"downlink {node.name}: traffic {down:.3f} exceeds the "
                f"reservation {reserved.into:.3f}"
            )
