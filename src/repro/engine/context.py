"""Shared per-process construction caches for trial execution.

Every trial needs a tenant pool, a scaled copy of it, and a topology
built from its spec.  Those are pure functions of hashable inputs, so
repeated trials in one process (the common case for a sweep) reuse them
instead of re-parsing workload data and rebuilding trees.  Mutable state
(the ledger and placer) is always constructed fresh per trial —
only immutable objects are cached.

Worker processes build their own caches on first use; nothing here is
shared across processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from repro.core.tag import Tag
from repro.engine.scenario import Trial
from repro.errors import EngineError
from repro.obs import core as _obs
from repro.simulation.runner import make_placer
from repro.topology.builder import (
    DatacenterSpec,
    heterogeneous_from_spec,
    three_level_tree,
)
from repro.topology.ledger import Ledger
from repro.topology.tree import Topology
from repro.workloads.bing import bing_pool
from repro.workloads.hpcloud import hpcloud_pool
from repro.workloads.scaling import scale_pool
from repro.workloads.synthetic import synthetic_pool

__all__ = [
    "POOL_NAMES",
    "TrialContext",
    "build_context",
    "get_hetero_topology",
    "get_pool",
    "get_scaled_pool",
    "get_topology",
]

_POOL_FACTORIES: dict[str, Callable[[], Sequence[Tag]]] = {
    "bing": bing_pool,
    "hpcloud": hpcloud_pool,
    "synthetic": synthetic_pool,
}

POOL_NAMES = tuple(sorted(_POOL_FACTORIES))


@lru_cache(maxsize=None)
def get_pool(name: str) -> tuple[Tag, ...]:
    """The named tenant pool, parsed once per process."""
    factory = _POOL_FACTORIES.get(name)
    if factory is None:
        raise EngineError(f"unknown pool {name!r}; options: {POOL_NAMES}")
    # Bumped inside the cached body: only cache *misses* count, so the
    # counter reads as "workload parses per process".
    c = _obs.counters
    if c is not None:
        c.bump("context.pool_builds")
    return tuple(factory())


@lru_cache(maxsize=64)
def get_scaled_pool(name: str, bmax: float) -> tuple[Tag, ...]:
    """The named pool scaled to ``bmax``, computed once per (pool, bmax)."""
    c = _obs.counters
    if c is not None:
        c.bump("context.scaled_pool_builds")
    return tuple(scale_pool(get_pool(name), bmax))


@lru_cache(maxsize=32)
def get_topology(spec: DatacenterSpec, unlimited: bool = False) -> Topology:
    """A built topology per spec.  Safe to share: topologies are immutable
    (all reservation state lives in per-trial :class:`Ledger` instances).

    The flat array view (precomputed ancestor/path tuples, server spans,
    subtree slot totals) is materialized here, once per process, so every
    trial's ledger and placers start from the shared arrays instead of
    racing to build them on first use."""
    c = _obs.counters
    if c is not None:
        c.bump("context.topology_builds")
    topology = three_level_tree(spec, unlimited=unlimited)
    topology.flat  # noqa: B018 - force one-time materialization
    return topology


@lru_cache(maxsize=32)
def get_hetero_topology(spec: DatacenterSpec) -> Topology:
    """The deterministic heterogeneous variant of a spec (failure kind).

    Immutable like :func:`get_topology` — failure state lives in
    per-trial ledgers' :class:`~repro.topology.failures.FailureMask`, so
    the shared topology is never mutated."""
    c = _obs.counters
    if c is not None:
        c.bump("context.topology_builds")
    topology = heterogeneous_from_spec(spec)
    topology.flat  # noqa: B018 - force one-time materialization
    return topology


@dataclass
class TrialContext:
    """Everything a rejection-style trial needs, ready to run."""

    pool: list[Tag]
    topology: Topology
    ledger: Ledger
    placer: object


def build_context(trial: Trial) -> TrialContext:
    """Construct the mutable simulation state for one trial.

    The scaled pool and topology come from the process-wide caches; the
    ledger and placer are fresh so trials never observe each other's
    reservations.
    """
    pool = list(get_scaled_pool(trial.pool, trial.bmax))
    topology = get_topology(trial.topology.spec)
    ledger = Ledger(topology)
    placer = make_placer(trial.variant.placer, ledger, trial.variant.ha)
    return TrialContext(pool, topology, ledger, placer)
