"""End-to-end experiment loops shared by the §5 experiments.

Two modes:

* :func:`simulate_rejections` — the standard arrival/departure loop over
  a capacity-constrained datacenter, reporting rejection rates and WCS
  statistics (Figs. 7-12).
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
from repro.models.voc import voc_uplink_requirement
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.placement.ha import HaPolicy
from repro.placement.oktopus import OktopusPlacer
from repro.placement.secondnet import SecondNetPlacer
from repro.simulation.arrivals import poisson_arrivals
from repro.simulation.cluster import (
    ClusterManager,
    run_arrival_departure,
    run_arrivals_until_full,
)
from repro.simulation.metrics import RunMetrics
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Ledger
from repro.workloads.scaling import scale_pool

__all__ = [
    "make_placer",
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


def make_placer(
    name: str,
    ledger: Ledger,
    ha: HaPolicy | None = None,
    *,
    use_candidate_index: bool = True,
):
    """Placer factory used by experiments and the CLI.

    ``cm-coloc-only`` and ``cm-balance-only`` are the Fig. 10 ablations.
    ``use_candidate_index=False`` selects the index-free candidate scan
    (bit-identical placements; the lockstep tests compare the two paths).
    """
    if name == "cm":
        return CloudMirrorPlacer(ledger, ha=ha, use_candidate_index=use_candidate_index)
    if name == "cm-coloc-only":
        return CloudMirrorPlacer(
            ledger, enable_balance=False, ha=ha, use_candidate_index=use_candidate_index
        )
    if name == "cm-balance-only":
        return CloudMirrorPlacer(
            ledger,
            enable_colocate=False,
            ha=ha,
            use_candidate_index=use_candidate_index,
        )
    if name == "ovoc":
        return OktopusPlacer(ledger, ha=ha, use_candidate_index=use_candidate_index)
    if name == "secondnet":
        if ha is not None and (ha.guarantees_wcs or ha.opportunistic):
            raise SimulationError("the SecondNet baseline does not support HA")
        return SecondNetPlacer(ledger, use_candidate_index=use_candidate_index)
    raise SimulationError(f"unknown placer {name!r}; options: {PLACER_NAMES}")


def simulate_rejections(
    pool: Sequence[Tag],
    placer_name: str,
    *,
    load: float,
    bmax: float,
    spec: DatacenterSpec,
    arrivals: int,
    seed: int = 0,
    ha: HaPolicy | None = None,
    laa_level: int = 0,
) -> RunMetrics:
    """One §5.1 run: scale pool to B_max, stream arrivals, collect metrics.

    This is the standalone single-run primitive.  Sweeps should go
    through ``repro.engine``, whose ``build_context`` caches reuse the
    scaled pool and topology across trials; the engine's rejection
    runner is pinned to this function by an equivalence test.
    """
    scaled = scale_pool(pool, bmax)
    topology = three_level_tree(spec)
    ledger = Ledger(topology)
    placer = make_placer(placer_name, ledger, ha)
    manager = ClusterManager(ledger, placer, laa_level=laa_level)
    events = poisson_arrivals(
        scaled, arrivals, load, topology.total_slots, seed=seed
    )
    return run_arrival_departure(manager, events, scaled)


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
    scaled = scale_pool(pool, bmax)
    rng = np.random.default_rng(seed)
    indices = [int(i) for i in rng.integers(0, len(scaled), size=max_arrivals)]

    # CM placing TAGs on the idealized topology.
    if topology is None:
        topology = three_level_tree(spec, unlimited=True)
    cm_ledger = Ledger(topology)
    cm_manager = ClusterManager(
        cm_ledger, CloudMirrorPlacer(cm_ledger), collect_wcs=False
    )
    accepted = run_arrivals_until_full(cm_manager, scaled, indices)
    cm_tag = _per_level(cm_ledger)

    # Same placement, accounted under the VOC abstraction (footnote 7).
    # Walks the flat core's id twins — ``iter_node_counts_id`` plus the
    # precomputed ``level[]`` array — instead of ``Node`` objects.
    cm_voc = {name: 0.0 for name in ReservedBandwidth.LEVELS}
    flat = topology.flat
    levels = flat.level
    root_id = flat.root_id
    num_levels = len(ReservedBandwidth.LEVELS)
    for allocation in cm_manager.active:
        for node_id, counts in allocation.iter_node_counts_id():
            level = levels[node_id]
            if node_id == root_id or level >= num_levels:
                continue
            requirement = voc_uplink_requirement(allocation.tag, counts)
            cm_voc[ReservedBandwidth.LEVELS[level]] += requirement.out / 1000.0

    # Oktopus deploying the same accepted tenants as VOCs.
    ovoc_ledger = Ledger(topology)
    ovoc_manager = ClusterManager(
        ovoc_ledger, OktopusPlacer(ovoc_ledger), collect_wcs=False
    )
    run_arrivals_until_full(
        ovoc_manager, scaled, accepted, stop_on_rejection=False
    )
    ovoc = _per_level(ovoc_ledger)

    return ReservedBandwidth(
        cm_tag=cm_tag,
        cm_voc=cm_voc,
        ovoc=ovoc,
        tenants_deployed=len(accepted),
    )
