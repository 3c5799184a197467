"""Weighted modularity: the score the Louvain tests rank partitions by.

:func:`repro.inference.louvain.louvain_communities` never evaluates Q
itself (its local moves use the gain formula), so this is an independent
oracle:

    Q = (1/2m) * sum_ij [A_ij - gamma * k_i k_j / (2m)] * delta(c_i, c_j)

An edge ``(i, j)`` and its reverse ``(j, i)`` both add to ``A``; a
self-loop adds ``2w`` to its node's degree.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping, Sequence


def modularity(
    graph: Mapping[tuple[int, int], float],
    labels: Sequence[int],
    num_nodes: int,
    resolution: float = 1.0,
) -> float:
    """Weighted modularity of a labelling (self-loops allowed)."""
    degrees = [0.0] * num_nodes
    total = intra = 0.0
    for (i, j), w in graph.items():
        total += w
        degrees[i] += w
        degrees[j] += w
        if labels[i] == labels[j]:
            intra += 2.0 * w
    if total == 0.0:
        return 0.0
    two_m = 2.0 * total
    community_degree: dict[int, float] = defaultdict(float)
    for node in range(num_nodes):
        community_degree[labels[node]] += degrees[node]
    quality = intra / two_m
    for degree_sum in community_degree.values():
        quality -= resolution * (degree_sum / two_m) ** 2
    return quality
