"""A synthetic stand-in for the hpcloud.com workload (paper §5).

The paper's second empirical dataset comes from HP Public Cloud via the
Choreo measurement study [29] (LaCurts et al., IMC 2013).  Choreo reports
that cloud tenants are typically *small* (tens of VMs), have sparse
communication where "a few pairs dominate" the traffic, and mostly form
simple hub-and-spoke or pipeline structures.  The paper only uses this
workload to state that results were "similar to Table 1", which is the
claim our Table 1 experiment re-checks with this pool.
"""

from __future__ import annotations

import numpy as np

from repro.core.tag import Tag
from repro.workloads import patterns

__all__ = ["hpcloud_pool"]


def hpcloud_pool(seed: int = 29) -> list[Tag]:
    """60 small tenants, sparse pair-dominated traffic, Pareto demands."""
    rng = np.random.default_rng(seed)
    pool: list[Tag] = []
    for i in range(60):
        name = f"hpc-{i:03d}"
        size = int(np.clip(rng.lognormal(2.0, 0.8), 2, 60))
        # Pareto demands: a few dominant pairs, a long tail of light ones.
        draw = lambda: float(rng.pareto(1.8) + 0.1)  # noqa: E731
        kind = rng.random()
        if kind < 0.5:
            tiers = int(rng.integers(2, 4))
            sizes = _split(rng, size, tiers)
            tag = patterns.linear_chain(
                name, sizes, [draw() for _ in range(len(sizes) - 1)]
            )
        elif kind < 0.8:
            tiers = int(rng.integers(2, 5))
            sizes = _split(rng, size, tiers)
            tag = patterns.star(
                name, sizes[0], sizes[1:], [draw() for _ in sizes[1:]]
            )
        else:
            half = max(1, size // 2)
            tag = patterns.mapreduce(
                name, half, max(1, size - half), draw(), intra_bw=draw() * 0.3
            )
        pool.append(tag)
    return pool


def _split(rng: np.random.Generator, total: int, parts: int) -> list[int]:
    if parts >= total:
        return [1] * total
    weights = rng.dirichlet(np.ones(parts))
    raw = np.maximum(1, np.round(weights * total).astype(int))
    while raw.sum() > total:
        raw[np.argmax(raw)] -= 1
    while raw.sum() < total:
        raw[np.argmin(raw)] += 1
    return [int(x) for x in raw]
