"""Poisson tenant arrival / departure streams (paper §5 setup).

"Each simulation run consists of 10,000 Poisson tenant arrivals and
departures.  Arriving tenants are uniformly sampled at random from a pool
of 80 tenants.  We vary the mean arrival rate (lambda) to control the
load on a datacenter while keeping tenant dwell time (Td) fixed; the load
is Ts * lambda * Td / (2048 x 25)" — mean tenant size times offered
tenant-rate times dwell time over total slots.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.tag import Tag
from repro.errors import SimulationError

__all__ = [
    "Arrival",
    "arrival_rate_for_load",
    "arrival_stream",
    "diurnal_arrivals",
    "poisson_arrivals",
    "trace_arrivals",
]


class Arrival(NamedTuple):
    """One tenant arrival: when it comes, which tenant, how long it stays."""

    time: float
    tenant_index: int
    dwell: float


def _records(
    times: list[float], indices: np.ndarray, dwells: np.ndarray
) -> Iterator[Arrival]:
    """One lazy ``Arrival`` per row, with no Python-level call per record.

    ``tolist()`` yields the same doubles and ints that ``float()`` /
    ``int()`` of each numpy scalar would (``times`` is already a list
    because the diurnal clock is accumulated in Python).
    """
    return map(
        partial(tuple.__new__, Arrival),
        zip(times, indices.tolist(), dwells.tolist()),
    )


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
    exponential with the rate implied by ``load``.
    """
    if not pool:
        raise SimulationError("tenant pool is empty")
    if count <= 0:
        raise SimulationError(f"need a positive arrival count, got {count}")
    rng = np.random.default_rng(seed)
    mean_size = float(np.mean([tag.size for tag in pool]))
    rate = arrival_rate_for_load(load, total_slots, mean_size, mean_dwell)
    gaps = rng.exponential(1.0 / rate, size=count)
    times = np.cumsum(gaps)
    indices = rng.integers(0, len(pool), size=count)
    dwells = rng.exponential(mean_dwell, size=count)
    return list(_records(times.tolist(), indices, dwells))


def _stream_inputs(
    pool: Sequence[Tag], count: int, mean_dwell: float, block: int
) -> float:
    """Shared validation for the streaming generators; returns mean size."""
    if not pool:
        raise SimulationError("tenant pool is empty")
    if count <= 0:
        raise SimulationError(f"need a positive arrival count, got {count}")
    if mean_dwell <= 0:
        raise SimulationError(f"mean dwell must be positive, got {mean_dwell}")
    if block <= 0:
        raise SimulationError(f"block size must be positive, got {block}")
    return float(np.mean([tag.size for tag in pool]))


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
    """Streaming :func:`poisson_arrivals`: O(block) memory at any count.

    Random draws happen in numpy blocks of ``block`` events (three bulk
    draws per block, same draw order as the materializing function), so
    a million-event service run never holds the event list.  With
    ``block >= count`` the stream is element-for-element identical to
    ``poisson_arrivals`` at the same seed; smaller blocks interleave the
    draws differently and give a statistically identical but distinct
    stream.  Arguments are checked here, at the call, not at the first
    ``next()``.
    """
    mean_size = _stream_inputs(pool, count, mean_dwell, block)
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
            yield _records(times.tolist(), indices, dwells)

    return chain.from_iterable(blocks())


def diurnal_arrivals(
    pool: Sequence[Tag],
    count: int,
    load: float,
    total_slots: int,
    *,
    factors: Sequence[float] | None = None,
    day_length: float = 1.0,
    mean_dwell: float = 1.0,
    seed: int = 0,
    block: int = 8192,
) -> Iterator[Arrival]:
    """Diurnal load: the Poisson rate follows a cyclic window profile.

    ``factors`` gives one relative rate per window of the day (default: a
    24-window day/night cycle from
    :func:`repro.temporal.profile.diurnal_profile`); the factors are
    normalized by their mean so ``load`` stays the *time-averaged* load
    and only the shape changes.  Inter-arrival gaps are sampled as unit
    exponentials scaled by the instantaneous rate of the window the
    clock currently sits in — the standard piecewise-constant thinning
    equivalent — and dwell times stay exponential, so the stream drops
    into the same loops as the flat Poisson one.  Arguments are checked
    at the call, like :func:`arrival_stream`.
    """
    mean_size = _stream_inputs(pool, count, mean_dwell, block)
    if factors is None:
        from repro.temporal.profile import diurnal_profile

        factors = diurnal_profile(24).factors
    factors = tuple(float(f) for f in factors)
    if not factors or min(factors) <= 0:
        raise SimulationError("diurnal factors must be positive")
    if day_length <= 0:
        raise SimulationError(f"day length must be positive, got {day_length}")
    base_rate = arrival_rate_for_load(load, total_slots, mean_size, mean_dwell)
    total = 0.0
    for factor in factors:  # not sum(): compensated from 3.12, values are pinned
        total += factor
    mean_factor = total / len(factors)
    rates = tuple(base_rate * f / mean_factor for f in factors)
    window_length = day_length / len(factors)

    def blocks() -> Iterator[Iterator[Arrival]]:
        rng = np.random.default_rng(seed)
        clock = 0.0
        for emitted in range(0, count, block):
            n = min(block, count - emitted)
            units = rng.exponential(1.0, size=n)
            indices = rng.integers(0, len(pool), size=n)
            dwells = rng.exponential(mean_dwell, size=n)
            times = []
            for unit in units.tolist():
                window = int(clock / window_length) % len(rates)
                clock += unit / rates[window]
                times.append(clock)
            yield _records(times, indices, dwells)

    return chain.from_iterable(blocks())


def trace_arrivals(
    events: Iterable[tuple[float, int, float]], pool_size: int | None = None
) -> Iterator[Arrival]:
    """Adapt a recorded ``(time, tenant_index, dwell)`` trace to Arrivals.

    Validates what the event loops rely on — finite non-decreasing
    times, positive dwells, integral in-range tenant indices — one event
    at a time, so an arbitrarily long trace file can be generated through
    without materialization.  Every malformed row raises
    :class:`~repro.errors.SimulationError` naming its 0-based position.
    """
    last = -math.inf
    for row, event in enumerate(events):
        try:
            time, tenant_index, dwell = event
            time = float(time)
            dwell = float(dwell)
            index = int(tenant_index)
            if index != tenant_index:
                raise ValueError(f"tenant index {tenant_index!r} is not integral")
        except (TypeError, ValueError, OverflowError) as error:
            raise SimulationError(f"trace row {row}: {error}") from None
        if not math.isfinite(time):
            raise SimulationError(f"trace row {row}: time must be finite, got {time}")
        if time < last:
            raise SimulationError(
                f"trace row {row}: times must be non-decreasing ({time} after {last})"
            )
        if not dwell > 0:  # also catches NaN
            raise SimulationError(
                f"trace row {row}: dwell must be positive, got {dwell}"
            )
        if index < 0 or (pool_size is not None and index >= pool_size):
            raise SimulationError(
                f"trace row {row}: tenant index {index} out of range"
            )
        last = time
        yield Arrival(time, index, dwell)
