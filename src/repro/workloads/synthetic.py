"""The synthetic mixed workload (paper §5.1).

"Experiments (not shown) using a synthetic workload, formed by
artificially mixing different application sizes and types (e.g., three
tier web services and MapReduce jobs) ... yielded results similar to
Table 1."  This pool reproduces that mix: interactive three-tier web
services of varied sizes, MapReduce batch jobs with heavy intra-tier
shuffles, and Storm-like streaming pipelines.
"""

from __future__ import annotations

import numpy as np

from repro.core.tag import Tag
from repro.workloads import patterns

__all__ = ["synthetic_pool"]


def synthetic_pool(seed: int = 7) -> list[Tag]:
    """60 tenants: three-tier web services, MapReduce jobs and Storm pipelines."""
    rng = np.random.default_rng(seed)
    pool: list[Tag] = []
    for i in range(60):
        kind = rng.random()
        if kind < 0.5:
            scale = int(rng.integers(1, 20))
            pool.append(
                patterns.three_tier(
                    f"web-{i:03d}",
                    (2 * scale, 2 * scale, scale),
                    b1=float(rng.lognormal(0.3, 0.5)),
                    b2=float(rng.lognormal(-0.5, 0.5)),
                    b3=float(rng.lognormal(-1.5, 0.5)),
                )
            )
        elif kind < 0.8:
            mappers = int(rng.integers(4, 80))
            reducers = max(1, mappers // int(rng.integers(2, 5)))
            pool.append(
                patterns.mapreduce(
                    f"batch-{i:03d}",
                    mappers,
                    reducers,
                    shuffle_bw=float(rng.lognormal(0.0, 0.5)),
                    intra_bw=float(rng.lognormal(0.0, 0.5)),
                )
            )
        else:
            pool.append(
                patterns.storm(
                    f"storm-{i:03d}",
                    size=int(rng.integers(2, 25)),
                    bandwidth=float(rng.lognormal(0.2, 0.5)),
                )
            )
    return pool
