"""End-to-end experiment loops shared by the §5 experiments.

Two modes:

* :func:`simulate_rejections` — the standard arrival/departure loop over
  a capacity-constrained datacenter, reporting rejection rates and WCS
  statistics (Figs. 7-12); :func:`run_rejections` is its loop, shared
  with the engine's rejection runner.
* :func:`measure_reserved_bandwidth` — the Table 1 loop: an idealized
  unlimited-capacity datacenter, arrivals only, stop at the first
  rejection for lack of slots, and report per-level reserved bandwidth
  for CM+TAG, CM+VOC (same placement, VOC accounting) and Oktopus+VOC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.tag import Tag
from repro.errors import SimulationError
from repro.placement.base import Rejection
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.placement.ha import HaPolicy
from repro.simulation.arrivals import Arrival, poisson_arrivals
from repro.simulation.metrics import RunMetrics
from repro.simulation.service import ServiceLoop
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Ledger
from repro.workloads.scaling import scale_pool

__all__ = [
    "make_placer",
    "run_rejections",
    "simulate_rejections",
    "measure_reserved_bandwidth",
    "ReservedBandwidth",
    "PLACER_NAMES",
]

PLACER_NAMES = (
    "cm",
    "cm-coloc-only",
    "cm-balance-only",
    "ovoc",
    "secondnet",
)


def make_placer(name: str, ledger: Ledger, ha: HaPolicy | None = None):
    """Placer factory used by experiments and the CLI.

    ``cm-coloc-only`` and ``cm-balance-only`` are the Fig. 10 ablations.
    Every placer finds its candidate subtrees (and SecondNet its rack
    servers) through the ledger's maintained candidate index.
    """
    if name == "cm":
        return CloudMirrorPlacer(ledger, ha=ha)
    if name == "cm-coloc-only":
        return CloudMirrorPlacer(ledger, enable_balance=False, ha=ha)
    if name == "cm-balance-only":
        return CloudMirrorPlacer(ledger, enable_colocate=False, ha=ha)
    if name == "ovoc":
        from repro.placement.oktopus import OktopusPlacer

        return OktopusPlacer(ledger, ha=ha)
    if name == "secondnet":
        if ha is not None and (ha.guarantees_wcs or ha.opportunistic):
            raise SimulationError("the SecondNet baseline does not support HA")
        from repro.placement.secondnet import SecondNetPlacer

        return SecondNetPlacer(ledger)
    raise SimulationError(f"unknown placer {name!r}; options: {PLACER_NAMES}")


def run_rejections(
    ledger: Ledger,
    placer,
    pool: Sequence[Tag],
    events: Sequence[Arrival],
    laa_level: int = 0,
) -> RunMetrics:
    """The §5.1 loop of Figs. 7-12: ``events`` through a
    :class:`ServiceLoop` whose ``on_decision`` is
    :meth:`RunMetrics.recorder`.  ``runtime_seconds`` sums the placer
    calls' wall clock."""
    metrics = RunMetrics()
    loop = ServiceLoop(
        ledger, placer, pool, on_decision=metrics.recorder(ledger, laa_level)
    )
    loop.run(events)
    metrics.runtime_seconds = loop.place_seconds
    return metrics


def simulate_rejections(
    pool: Sequence[Tag],
    placer_name: str,
    *,
    load: float,
    bmax: float,
    spec: DatacenterSpec,
    arrivals: int,
    seed: int = 0,
) -> RunMetrics:
    """One §5.1 run without HA: scale pool to B_max, stream arrivals,
    collect metrics.

    This is the standalone single-run primitive.  Sweeps should go
    through ``repro.engine``, whose ``build_context`` caches reuse the
    scaled pool and topology across trials; both run
    :func:`run_rejections`.
    """
    scaled = scale_pool(pool, bmax)
    topology = three_level_tree(spec)
    ledger = Ledger(topology)
    placer = make_placer(placer_name, ledger)
    events = poisson_arrivals(
        scaled, arrivals, load, topology.total_slots, seed=seed
    )
    return run_rejections(ledger, placer, scaled, events)


@dataclass(frozen=True)
class ReservedBandwidth:
    """Table 1 row set: per-level reserved Gbps for the three combos."""

    cm_tag: dict[str, float]
    cm_voc: dict[str, float]
    ovoc: dict[str, float]
    tenants_deployed: int

    LEVELS = ("server", "tor", "agg")


def _per_level(ledger: Ledger) -> dict[str, float]:
    return {
        level_name: ledger.reserved_at_level(level) / 1000.0  # Mbps -> Gbps
        for level, level_name in enumerate(ReservedBandwidth.LEVELS)
    }


def measure_reserved_bandwidth(
    pool: Sequence[Tag],
    *,
    bmax: float,
    spec: DatacenterSpec,
    seed: int = 0,
    max_arrivals: int = 20_000,
    topology=None,
) -> ReservedBandwidth:
    """The Table 1 experiment (see module docstring).

    ``topology`` optionally supplies a prebuilt *unlimited* tree (shared
    safely by both ledgers — topologies are immutable).
    """
    from repro.models.voc import voc_uplink_requirement
    from repro.placement.oktopus import OktopusPlacer

    scaled = scale_pool(pool, bmax)
    rng = np.random.default_rng(seed)
    indices = [int(i) for i in rng.integers(0, len(scaled), size=max_arrivals)]

    # CM placing TAGs on the idealized topology.
    if topology is None:
        topology = three_level_tree(spec, unlimited=True)
    cm_ledger = Ledger(topology)
    cm_placer = CloudMirrorPlacer(cm_ledger)
    allocations = []
    for index in indices:
        result = cm_placer.place(scaled[index])
        if isinstance(result, Rejection):
            break
        allocations.append(result.allocation)
    cm_tag = _per_level(cm_ledger)

    # Same placement, accounted under the VOC abstraction (footnote 7).
    # Walks node ids — ``iter_node_counts`` plus the precomputed
    # ``level[]`` array.
    cm_voc = {name: 0.0 for name in ReservedBandwidth.LEVELS}
    flat = topology.flat
    levels = flat.level
    root_id = flat.root_id
    num_levels = len(ReservedBandwidth.LEVELS)
    for allocation in allocations:
        for node_id, counts in allocation.iter_node_counts():
            level = levels[node_id]
            if node_id == root_id or level >= num_levels:
                continue
            requirement = voc_uplink_requirement(allocation.tag, counts)
            cm_voc[ReservedBandwidth.LEVELS[level]] += requirement.out / 1000.0

    # Oktopus deploying the same accepted tenants as VOCs.
    ovoc_ledger = Ledger(topology)
    ovoc_placer = OktopusPlacer(ovoc_ledger)
    for allocation in allocations:
        ovoc_placer.place(allocation.tag)
    ovoc = _per_level(ovoc_ledger)

    return ReservedBandwidth(
        cm_tag=cm_tag,
        cm_voc=cm_voc,
        ovoc=ovoc,
        tenants_deployed=len(allocations),
    )
