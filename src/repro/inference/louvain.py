"""Louvain community detection, implemented from scratch (§3, ref [35]).

Blondel et al.'s two-phase loop: (1) local moving — greedily move nodes
to the neighbouring community with the largest modularity gain until no
move improves; (2) aggregation — collapse each community to a super-node
and repeat on the smaller graph.  Weighted, undirected.

Modularity:

    Q = (1/2m) * sum_ij [A_ij - k_i k_j / (2m)] * delta(c_i, c_j)

The local-moving gain for moving node ``i`` into community ``C`` is

    dQ = k_{i,in}/m - k_i * Sigma_C / (2 m^2)

up to constants identical across candidate communities.  At most
``_MAX_LEVELS`` rounds of moving and aggregation run.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Mapping, Sequence

from repro.errors import InferenceError

__all__ = ["louvain_communities"]

Graph = Mapping[tuple[int, int], float]

_MAX_LEVELS = 10


def louvain_communities(
    graph: Graph,
    num_nodes: int,
    *,
    seed: int = 0,
) -> list[int]:
    """Cluster nodes 0..num_nodes-1; returns a dense community label list."""
    if num_nodes <= 0:
        raise InferenceError("graph must have at least one node")
    for (i, j), w in graph.items():
        if not 0 <= i < num_nodes or not 0 <= j < num_nodes:
            raise InferenceError(f"edge ({i},{j}) outside [0,{num_nodes})")
        if w < 0:
            raise InferenceError("edge weights must be non-negative")
    rng = random.Random(seed)
    # mapping[v] = current community of original node v
    mapping = list(range(num_nodes))
    current_graph = dict(graph)
    current_n = num_nodes
    for _ in range(_MAX_LEVELS):
        labels, improved = _local_moving(current_graph, current_n, rng)
        labels, num_communities = _renumber(labels)
        mapping = [labels[c] for c in mapping]
        if not improved or num_communities == current_n:
            break
        current_graph = _aggregate(current_graph, labels)
        current_n = num_communities
    final, _ = _renumber(mapping)
    return final


# ----------------------------------------------------------------------
def _normalize(
    graph: Graph, num_nodes: int
) -> tuple[dict[tuple[int, int], float], list[float], float]:
    """Canonical (i<=j) adjacency, weighted degrees and total weight m."""
    adjacency: dict[tuple[int, int], float] = defaultdict(float)
    for (i, j), w in graph.items():
        if w == 0.0:
            continue
        key = (i, j) if i <= j else (j, i)
        adjacency[key] += w
    degrees = [0.0] * num_nodes
    total = 0.0
    for (i, j), w in adjacency.items():
        total += w
        if i == j:
            degrees[i] += 2.0 * w
        else:
            degrees[i] += w
            degrees[j] += w
    return dict(adjacency), degrees, total


def _local_moving(
    graph: Graph, num_nodes: int, rng: random.Random
) -> tuple[list[int], bool]:
    adjacency, degrees, total = _normalize(graph, num_nodes)
    labels = list(range(num_nodes))
    if total == 0.0:
        return labels, False
    neighbors: dict[int, dict[int, float]] = defaultdict(dict)
    for (i, j), w in adjacency.items():
        if i != j:
            neighbors[i][j] = neighbors[i].get(j, 0.0) + w
            neighbors[j][i] = neighbors[j].get(i, 0.0) + w
    community_degree = list(degrees)  # one community per node initially
    two_m = 2.0 * total
    improved_any = False
    order = list(range(num_nodes))
    for _ in range(num_nodes * 4):  # bounded sweeps
        rng.shuffle(order)
        moved = 0
        for node in order:
            home = labels[node]
            k_i = degrees[node]
            community_degree[home] -= k_i
            weight_to: dict[int, float] = defaultdict(float)
            for peer, w in neighbors[node].items():
                weight_to[labels[peer]] += w
            best_community = home
            best_gain = weight_to.get(home, 0.0) - (
                k_i * community_degree[home] / two_m
            )
            for community, k_in in weight_to.items():
                if community == home:
                    continue
                gain = k_in - k_i * community_degree[community] / two_m
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_community = community
            labels[node] = best_community
            community_degree[best_community] += k_i
            if best_community != home:
                moved += 1
                improved_any = True
        if moved == 0:
            break
    return labels, improved_any


def _renumber(labels: Sequence[int]) -> tuple[list[int], int]:
    seen: dict[int, int] = {}
    dense = []
    for label in labels:
        if label not in seen:
            seen[label] = len(seen)
        dense.append(seen[label])
    return dense, len(seen)


def _aggregate(graph: Graph, labels: Sequence[int]) -> dict[tuple[int, int], float]:
    aggregated: dict[tuple[int, int], float] = defaultdict(float)
    for (i, j), w in graph.items():
        a, b = labels[i], labels[j]
        key = (a, b) if a <= b else (b, a)
        aggregated[key] += w
    return dict(aggregated)
