"""Per-kind trial execution functions.

Each runner takes one fully-bound :class:`~repro.engine.scenario.Trial`
and returns a picklable payload; :func:`execute_trial` wraps the payload
into a :class:`TrialResult` with wall time.  All runners are module-level
functions so ``multiprocessing`` spawn workers can import them by
reference.

Kinds shipped with the repo:

========== ==========================================================
kind       payload
========== ==========================================================
rejection  :class:`repro.simulation.metrics.RunMetrics`
reserved   :class:`repro.simulation.runner.ReservedBandwidth`
inference  ``{"scores": [...], "applications": int}``
runtime    ``{"seconds": float, "placed": bool}`` or ``None`` (skipped)
enforce    :class:`repro.enforcement.scenarios.Fig13Point`
hose_fail  :class:`repro.enforcement.scenarios.Fig4Outcome`
temporal   ``{"windows", "tenants", "admitted", "utilization"}``
failure    survival/churn/recovery dict (see ``run_failure_trial``)
service    streaming-loop report dict (see ``run_service_trial``)
survey     raw Fig. 1 ratio data (dict)
========== ==========================================================

New kinds can be added with :func:`register_runner`.
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from repro.engine.context import build_context, get_pool, get_topology
from repro.engine.scenario import Trial, TrialResult
from repro.errors import EngineError
from repro.obs import core as obs
from repro.obs.trace import TraceRecorder
from repro.simulation.arrivals import poisson_arrivals
from repro.simulation.runner import measure_reserved_bandwidth, run_rejections

__all__ = ["KIND_AXES", "RUNNERS", "execute_trial", "kind_axes", "register_runner"]


def run_rejection_trial(trial: Trial):
    """The §5.1 arrival/departure loop (Figs. 7-12).

    :func:`repro.simulation.runner.run_rejections` on a
    :func:`build_context` context, whose process-wide caches let
    repeated trials skip re-scaling the pool and re-building the
    topology.
    """
    context = build_context(trial)
    events = poisson_arrivals(
        context.pool,
        trial.arrivals,
        trial.load,
        context.topology.total_slots,
        seed=trial.seed,
    )
    return run_rejections(
        context.ledger, context.placer, context.pool, events, trial.laa_level
    )


def run_reserved_trial(trial: Trial):
    """The Table 1 loop on the idealized unlimited topology."""
    return measure_reserved_bandwidth(
        get_pool(trial.pool),
        bmax=trial.bmax,
        spec=trial.topology.spec,
        seed=trial.seed,
        max_arrivals=trial.param("max_arrivals", 20_000),
        topology=get_topology(trial.topology.spec, unlimited=True),
    )


def run_inference_trial(trial: Trial) -> dict[str, Any]:
    """The §3 TAG-inference pipeline over one seed's synthetic traces."""
    from repro.inference.ami import ami
    from repro.inference.builder import infer_components
    from repro.inference.traffic import synthesize_trace

    max_vms = trial.param("max_vms", 60)
    max_applications = trial.param("max_applications", 20)
    noise_fraction = trial.param("noise_fraction", 0.05)
    pool = [
        tag
        for tag in get_pool(trial.pool)
        if tag.num_tiers >= 2 and tag.size <= max_vms
    ][:max_applications]
    scores = []
    for index, tag in enumerate(pool):
        trace = synthesize_trace(
            tag, seed=trial.seed + index, noise_fraction=noise_fraction
        )
        labels = infer_components(trace, seed=trial.seed + index)
        scores.append(ami(trace.labels, labels))
    return {
        "scores": scores,
        "mean": float(np.mean(scores)) if scores else 0.0,
        "applications": len(scores),
    }


def run_runtime_trial(trial: Trial) -> dict[str, Any] | None:
    """Time one single-tenant placement on an empty datacenter.

    Builds only what the measurement touches (no tenant pool, no event
    loop): a fresh ledger over the cached topology plus the placer under
    test.
    """
    from repro.placement.base import Placement
    from repro.simulation.runner import make_placer
    from repro.topology.ledger import Ledger
    from repro.workloads.patterns import three_tier

    vms = int(trial.x)
    cap = trial.param("secondnet_size_cap", 120)
    if trial.variant.placer == "secondnet" and vms > cap:
        return None  # O(N^2) pipes; the paper reports tens of minutes
    third = max(1, vms // 3)
    tenant = three_tier(
        f"rt-{vms}", (vms - 2 * third, third, third), b1=200.0, b2=50.0, b3=20.0
    )
    ledger = Ledger(get_topology(trial.topology.spec))
    placer = make_placer(trial.variant.placer, ledger, trial.variant.ha)
    # obs.timed is perf_counter either way; the reading IS the payload.
    with obs.timed("place") as timer:
        result = placer.place(tenant)
    return {
        "seconds": timer.seconds,
        "placed": isinstance(result, Placement),
    }


def run_enforce_trial(trial: Trial):
    """One x-axis point of Fig. 13 (ElasticSwitch-style enforcement)."""
    from repro.enforcement.scenarios import fig13_scenario

    return fig13_scenario(
        int(trial.x),
        mode=trial.variant.placer,
        guarantee=trial.param("guarantee", 450.0),
        bottleneck=trial.param("bottleneck", 1000.0),
    )


def run_hose_failure_trial(trial: Trial):
    """The Fig. 4 motivation scenario under one abstraction."""
    from repro.enforcement.scenarios import fig4_scenario

    return fig4_scenario(
        mode=trial.variant.placer,
        **{key: value for key, value in trial.params},
    )


def run_temporal_trial(trial: Trial) -> dict[str, Any]:
    """§6 window-aware admission capacity at one window count.

    Admits a deterministic day/night tenant mix into a fresh W-plane
    cluster; the variant axis selects the accounting — ``window`` keeps
    per-window reservations, ``peak`` flattens every tenant to its peak
    (the classic time-unaware system).
    """
    from repro.temporal.admission import TemporalCluster, peak_equivalent
    from repro.temporal.profile import TemporalTag, diurnal_profile
    from repro.workloads.patterns import mapreduce, three_tier

    mode = trial.variant.placer
    if mode not in ("window", "peak"):
        raise EngineError(
            f"temporal variant must be 'window' or 'peak', got {mode!r}"
        )
    windows = int(trial.x)
    tenants = int(trial.param("tenants", 48))
    trough = float(trial.param("trough", 0.2))
    day = diurnal_profile(windows, peak_window=windows // 3, trough=trough)
    night = diurnal_profile(
        windows, peak_window=windows // 3 + windows // 2, trough=trough
    )
    cluster = TemporalCluster(trial.topology.spec, windows=windows)
    admitted = 0
    for index in range(tenants):
        if index % 2 == 0:
            tenant = TemporalTag(
                three_tier(f"web-{index}", (4, 4, 2), 675.0, 225.0, 60.0), day
            )
        else:
            tenant = TemporalTag(
                mapreduce(f"batch-{index}", 6, 3, 600.0, intra_bw=240.0), night
            )
        if mode == "peak":
            tenant = peak_equivalent(tenant)
        if cluster.admit(tenant) is not None:
            admitted += 1
    return {
        "windows": windows,
        "tenants": tenants,
        "admitted": admitted,
        "utilization": [
            cluster.window_utilization(window, level=0)
            for window in range(windows)
        ],
    }


def run_failure_trial(trial: Trial) -> dict[str, Any]:
    """Failure injection + recovery on a (default: heterogeneous) fabric.

    ``x`` is the failed-server fraction; params ``switches``/``links``
    set the ToR-switch and ToR-uplink failure counts, and ``hetero``
    (default 1) selects the deterministic mixed-rack variant of the
    spec over the symmetric tree.  ``recover_seconds`` in the payload is
    wall clock and excluded from fingerprints (see ``_TIMING_FIELDS``).
    """
    from repro.engine.context import get_hetero_topology, get_scaled_pool
    from repro.simulation.failures import run_failure_scenario

    topology = (
        get_hetero_topology(trial.topology.spec)
        if trial.param("hetero", 1)
        else get_topology(trial.topology.spec)
    )
    return run_failure_scenario(
        topology,
        list(get_scaled_pool(trial.pool, trial.bmax)),
        placer_name=trial.variant.placer,
        ha=trial.variant.ha,
        load=trial.load,
        arrivals=trial.arrivals,
        seed=trial.seed,
        fail_fraction=float(trial.x),
        switch_failures=int(trial.param("switches", 1)),
        link_failures=int(trial.param("links", 1)),
    )


def run_service_trial(trial: Trial) -> dict[str, Any]:
    """Cohort-batched service loop over a streaming arrival generator.

    Streams ``trial.arrivals`` events (O(block) memory at any count)
    through :class:`~repro.simulation.service.ServiceLoop` on a fresh
    ledger.  Params: ``load_profile`` picks the generator (``poisson``
    default, or ``diurnal`` for the cyclic day/night rate), ``cohort``
    the admission batch size, ``heartbeat`` the events between
    utilization samples.  The payload's ledger ``fingerprint`` makes two
    runs comparable bit-for-bit; wall-clock lives under ``timing``,
    which fingerprinting and the codec both treat as non-deterministic.
    """
    from repro.engine.context import get_scaled_pool
    from repro.simulation.arrivals import arrival_stream, diurnal_arrivals
    from repro.simulation.runner import make_placer
    from repro.simulation.service import ServiceLoop, ledger_fingerprint
    from repro.topology.ledger import Ledger

    pool = list(get_scaled_pool(trial.pool, trial.bmax))
    topology = get_topology(trial.topology.spec)
    ledger = Ledger(topology)
    placer = make_placer(trial.variant.placer, ledger, trial.variant.ha)
    profile = str(trial.param("load_profile", "poisson"))
    if profile == "poisson":
        events = arrival_stream(
            pool, trial.arrivals, trial.load, topology.total_slots, seed=trial.seed
        )
    elif profile == "diurnal":
        events = diurnal_arrivals(
            pool, trial.arrivals, trial.load, topology.total_slots, seed=trial.seed
        )
    else:
        raise EngineError(
            f"load_profile must be 'poisson' or 'diurnal', got {profile!r}"
        )
    loop = ServiceLoop(
        ledger,
        placer,
        pool,
        cohort=int(trial.param("cohort", 64)),
        heartbeat=int(trial.param("heartbeat", 4096)),
    )
    report = loop.run(events)
    report["load_profile"] = profile
    report["cohort"] = loop.cohort
    report["fingerprint"] = ledger_fingerprint(ledger)
    return report


def run_survey_trial(trial: Trial) -> dict[str, Any]:
    """Raw Fig. 1 data: workload demand vs datacenter provisioning."""
    from repro.workloads.survey import DATACENTERS, WORKLOADS, datacenter_ratios

    dc_rows = []
    for dc in DATACENTERS:
        ratios = datacenter_ratios(dc)
        dc_rows.append(
            [dc.name, ratios["server"], ratios["tor"], ratios["aggregation"]]
        )
    interactive = [
        float(np.sqrt(w.low * w.high)) for w in WORKLOADS if w.kind == "interactive"
    ]
    batch = [float(np.sqrt(w.low * w.high)) for w in WORKLOADS if w.kind == "batch"]
    return {
        "workload_rows": [[w.name, w.kind, w.low, w.high] for w in WORKLOADS],
        "datacenter_rows": dc_rows,
        "interactive_median": float(np.median(interactive)),
        "batch_median": float(np.median(batch)),
    }


RUNNERS: dict[str, Callable[[Trial], Any]] = {
    "rejection": run_rejection_trial,
    "reserved": run_reserved_trial,
    "inference": run_inference_trial,
    "runtime": run_runtime_trial,
    "enforce": run_enforce_trial,
    "hose_fail": run_hose_failure_trial,
    "temporal": run_temporal_trial,
    "failure": run_failure_trial,
    "service": run_service_trial,
    "survey": run_survey_trial,
}

_ALL_AXES = frozenset({"seeds", "loads", "bmaxes", "placers", "pods", "arrivals"})

# Which generic grid axes each kind actually consumes.  The CLI uses
# this to reject overrides that would be silent no-ops (e.g.
# ``--arrivals`` on table1, whose runner streams until the first
# rejection regardless).
KIND_AXES: dict[str, frozenset[str]] = {
    "rejection": _ALL_AXES,
    "reserved": frozenset({"seeds", "bmaxes", "pods"}),
    "inference": frozenset({"seeds"}),
    "runtime": frozenset({"placers", "pods"}),
    # Enforcement kinds compare abstraction modes: the variant axis IS
    # the tag/hose mode, so --placers is meaningful.
    "enforce": frozenset({"placers"}),
    "hose_fail": frozenset({"placers"}),
    # The variant axis is the accounting mode (window vs peak); the
    # x-axis is the window count.
    "temporal": frozenset({"placers", "pods"}),
    # The x-axis is the failed-server fraction; every generic axis
    # (load, pool scaling, placer, topology size, seeds) is meaningful.
    "failure": _ALL_AXES,
    # The streaming loop consumes every generic axis; arrival shape and
    # cohort size ride on params (--load-profile and scenario overrides).
    "service": _ALL_AXES,
    "survey": frozenset(),
}


def kind_axes(kind: str) -> frozenset[str]:
    """Grid axes consumed by ``kind``; custom kinds accept everything."""
    return KIND_AXES.get(kind, _ALL_AXES)


# Kinds whose payload is a wall-clock measurement: dispatching their
# trials across worker processes would let CPU contention inflate the
# measured seconds, so the engine pins them to serial execution.
SERIAL_ONLY_KINDS: frozenset[str] = frozenset({"runtime"})


def register_runner(kind: str, runner: Callable[[Trial], Any]) -> None:
    """Add (or replace) the execution function for a trial kind.

    For ``n_jobs > 1`` the function must be importable by spawn workers,
    i.e. defined at module level, not a lambda or closure.
    """
    if not kind:
        raise EngineError("runner kind must be non-empty")
    RUNNERS[kind] = runner


def execute_trial(trial: Trial) -> TrialResult:
    """Run one trial through its kind's runner, timing the wall clock.

    The timing source must stay ``time.perf_counter()``: elapsed values
    are persisted by the results store and compared across runs, so they
    have to be monotonic and immune to wall-clock adjustments (NTP
    slews, DST) that would corrupt a ``time.time()`` delta.

    With instrumentation on (:func:`repro.obs.enable` in this process,
    or the ``REPRO_OBS`` flag inherited by a spawn worker), the whole
    trial runs inside a :class:`~repro.obs.trace.TraceRecorder` and the
    result carries its export on ``TrialResult.telemetry`` — a plain
    dict, so it crosses the worker boundary with the rest of the result.
    The payload itself is bit-identical either way: instrumentation only
    reads simulation state.
    """
    runner = RUNNERS.get(trial.kind)
    if runner is None:
        raise EngineError(
            f"no runner for kind {trial.kind!r}; options: {sorted(RUNNERS)}"
        )
    if not obs.enabled():
        started = time.perf_counter()
        payload = runner(trial)
        return TrialResult(trial, payload, time.perf_counter() - started)
    label = f"{trial.scenario}/{trial.variant.name}#{trial.index}"
    with TraceRecorder(label) as recorder:
        started = time.perf_counter()
        with obs.span(f"trial.{trial.kind}", scenario=trial.scenario,
                      variant=trial.variant.name, seed=trial.seed):
            payload = runner(trial)
        elapsed = time.perf_counter() - started
    return TrialResult(trial, payload, elapsed, telemetry=recorder.export())
