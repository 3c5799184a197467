"""Poisson tenant arrival / departure streams (paper §5 setup).

"Each simulation run consists of 10,000 Poisson tenant arrivals and
departures.  Arriving tenants are uniformly sampled at random from a pool
of 80 tenants.  We vary the mean arrival rate (lambda) to control the
load on a datacenter while keeping tenant dwell time (Td) fixed; the load
is Ts * lambda * Td / (2048 x 25)" — mean tenant size times offered
tenant-rate times dwell time over total slots.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.tag import Tag
from repro.errors import SimulationError

__all__ = [
    "Arrival",
    "arrival_rate_for_load",
    "arrival_stream",
    "poisson_arrivals",
]


class Arrival(NamedTuple):
    """One tenant arrival: when it comes, which tenant, how long it stays."""

    time: float
    tenant_index: int
    dwell: float


def arrival_rate_for_load(
    load: float, total_slots: int, mean_tenant_size: float, mean_dwell: float
) -> float:
    """Invert the paper's load formula: lambda = load*slots/(Ts*Td)."""
    if not 0 < load:
        raise SimulationError(f"load must be positive, got {load!r}")
    if mean_tenant_size <= 0 or mean_dwell <= 0 or total_slots <= 0:
        raise SimulationError("sizes, dwell and slots must be positive")
    return load * total_slots / (mean_tenant_size * mean_dwell)


def poisson_arrivals(
    pool: Sequence[Tag],
    count: int,
    load: float,
    total_slots: int,
    *,
    mean_dwell: float = 1.0,
    seed: int = 0,
) -> list[Arrival]:
    """Sample ``count`` Poisson arrivals with exponential dwell times.

    Tenants are drawn uniformly from ``pool``; inter-arrival gaps are
    exponential with the rate implied by ``load``.  The materialized
    :func:`arrival_stream`, drawn in one block.
    """
    return list(
        arrival_stream(
            pool, count, load, total_slots, mean_dwell=mean_dwell, seed=seed, block=count
        )
    )


def arrival_stream(
    pool: Sequence[Tag],
    count: int,
    load: float,
    total_slots: int,
    *,
    mean_dwell: float = 1.0,
    seed: int = 0,
    block: int = 8192,
) -> Iterator[Arrival]:
    """Poisson arrivals with exponential dwells, in O(block) memory.

    Random draws happen in numpy blocks of ``block`` events (three bulk
    draws per block: gaps, tenant indices, dwells), so a long run never
    holds the event list.  :func:`poisson_arrivals` is this stream with
    ``block == count``; smaller blocks interleave the draws differently
    and give a statistically identical but distinct stream.  Arguments are checked here, at the call, not at
    the first ``next()``.
    """
    if not pool:
        raise SimulationError("tenant pool is empty")
    if count <= 0:
        raise SimulationError(f"need a positive arrival count, got {count}")
    if mean_dwell <= 0:
        raise SimulationError(f"mean dwell must be positive, got {mean_dwell}")
    if block <= 0:
        raise SimulationError(f"block size must be positive, got {block}")
    mean_size = float(np.mean([tag.size for tag in pool]))
    rate = arrival_rate_for_load(load, total_slots, mean_size, mean_dwell)

    def blocks() -> Iterator[Iterator[Arrival]]:
        rng = np.random.default_rng(seed)
        clock = 0.0
        for emitted in range(0, count, block):
            n = min(block, count - emitted)
            gaps = rng.exponential(1.0 / rate, size=n)
            times = np.cumsum(gaps) + clock
            indices = rng.integers(0, len(pool), size=n)
            dwells = rng.exponential(mean_dwell, size=n)
            clock = float(times[-1])
            # tolist() yields the same doubles and ints that float() /
            # int() of each numpy scalar would, with no Python-level
            # call per record.
            yield map(
                partial(tuple.__new__, Arrival),
                zip(times.tolist(), indices.tolist(), dwells.tolist()),
            )

    return chain.from_iterable(blocks())
