"""Benchmark: what the observability layer costs when off, on, and tracing.

Runs a loaded arrival/departure stream through CloudMirror (the loop
the hot-path counters instrument most densely) three times on identical
inputs:

* **disabled** — counters and recorder both ``None``: the shipped
  default, where every instrumented site pays one module-attribute load
  plus one identity test.
* **counters** — ``obs.enable()``: every site also bumps a dict slot.
* **traced** — counters plus a :class:`TraceRecorder` installed, so the
  ``obs.timed`` sites additionally append span events.

All three must produce bit-identical placement decisions (asserted on
metrics, final layouts and slot usage) — the obs layer observes, never
perturbs.  The printed report holds the three wall clocks, the
relative overheads, the counter totals, and a micro-benchmark of the
disabled guard itself (ns per instrumented operation), which is the
number behind the "disabled path is near-free" claim.  This is the only
measurement of that budget: ``bench/child.py`` pins ``REPRO_OBS``.

Scale knobs: ``REPRO_BENCH_OBS_PODS`` (default 8),
``REPRO_BENCH_OBS_ARRIVALS`` (default 600).  Ceilings (fractions, set
to a huge value on noisy shared runners where the printed report is the
deliverable): ``REPRO_BENCH_OBS_MAX_COUNTER_OVERHEAD`` (default 0.15)
and ``REPRO_BENCH_OBS_MAX_TRACE_OVERHEAD`` (default 0.30).
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import time

from repro.obs import core
from repro.obs.trace import TraceRecorder
from repro.simulation.arrivals import poisson_arrivals
from repro.simulation.cluster import ClusterManager, run_arrival_departure
from repro.simulation.runner import make_placer
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Ledger
from repro.workloads.synthetic import synthetic_pool

CHURN_LOAD = 0.8
CHURN_TENANT_CAP = 40
GUARD_LOOPS = 2_000_000


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def _env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


def _churn_once(topology, arrivals, pool):
    ledger = Ledger(topology)
    placer = make_placer("cm", ledger)
    manager = ClusterManager(
        ledger, placer, collect_wcs=False, collect_utilization=False
    )
    started = time.perf_counter()
    metrics = run_arrival_departure(manager, arrivals, pool)
    elapsed = time.perf_counter() - started
    layouts = [
        sorted(
            (server.node_id, tuple(sorted(counts.items())))
            for server, counts in allocation.iter_server_placements()
        )
        for allocation in manager.active
    ]
    outcome = dataclasses.asdict(metrics)
    outcome.pop("runtime_seconds")
    return elapsed, (outcome, layouts, list(ledger._used_slots))


def _best_of(runs, fn):
    best, identity = float("inf"), None
    for _ in range(runs):
        elapsed, outcome = fn()
        best = min(best, elapsed)
        identity = outcome
    return best, identity


def _guard_ns_per_op() -> float:
    """Micro-cost of the disabled hot-path guard, ns per operation."""
    assert core.counters is None

    def loop(n: int) -> float:
        started = time.perf_counter()
        for _ in range(n):
            c = core.counters
            if c is not None:  # pragma: no cover - disabled in this bench
                c.bump("never")
        return time.perf_counter() - started

    def empty(n: int) -> float:
        started = time.perf_counter()
        for _ in range(n):
            pass
        return time.perf_counter() - started

    guarded = min(loop(GUARD_LOOPS) for _ in range(3))
    baseline = min(empty(GUARD_LOOPS) for _ in range(3))
    return max(0.0, (guarded - baseline) / GUARD_LOOPS * 1e9)


def test_obs_overhead_off_on_traced():
    pods = _env_int("REPRO_BENCH_OBS_PODS", 8)
    count = _env_int("REPRO_BENCH_OBS_ARRIVALS", 600)
    pool = [
        tenant
        for tenant in synthetic_pool()
        if sum(c.size for c in tenant.internal_components())
        <= CHURN_TENANT_CAP
    ]
    topology = three_level_tree(DatacenterSpec(pods=pods))
    topology.flat
    arrivals = poisson_arrivals(
        pool, count, CHURN_LOAD, topology.total_slots, seed=0
    )

    def disabled():
        return _churn_once(topology, arrivals, pool)

    def counted():
        with core.enabled_scope():
            return _churn_once(topology, arrivals, pool)

    def traced():
        with core.enabled_scope():
            with TraceRecorder("bench/churn") as rec:
                result = _churn_once(topology, arrivals, pool)
            traced.last_export = rec.export()  # type: ignore[attr-defined]
            return result

    prev_counters, prev_recorder = core.counters, core.recorder
    assert prev_recorder is None, "bench needs a quiet obs state"
    guard_ns = _guard_ns_per_op() if prev_counters is None else None

    disabled_best, disabled_outcome = _best_of(3, disabled)
    counted_best, counted_outcome = _best_of(3, counted)
    traced_best, traced_outcome = _best_of(3, traced)

    assert counted_outcome == disabled_outcome, "counters changed behaviour"
    assert traced_outcome == disabled_outcome, "tracing changed behaviour"

    with core.enabled_scope() as counters:
        _churn_once(topology, arrivals, pool)
        totals = dict(counters)
    export = traced.last_export  # type: ignore[attr-defined]

    counter_overhead = counted_best / disabled_best - 1.0
    trace_overhead = traced_best / disabled_best - 1.0
    report = {
        "benchmark": "obs_overhead",
        "python": platform.python_version(),
        "pods": pods,
        "arrivals": count,
        "load": CHURN_LOAD,
        "disabled_ms": round(disabled_best * 1e3, 1),
        "counters_ms": round(counted_best * 1e3, 1),
        "traced_ms": round(traced_best * 1e3, 1),
        "counter_overhead": round(counter_overhead, 4),
        "trace_overhead": round(trace_overhead, 4),
        "disabled_guard_ns_per_op": (
            round(guard_ns, 1) if guard_ns is not None else None
        ),
        "counter_totals": {k: totals[k] for k in sorted(totals)},
        "trace_events": len(export["events"]),
        "trace_phases": sorted(export["phases"]),
    }
    print(json.dumps(report, indent=2))

    max_counter = _env_float("REPRO_BENCH_OBS_MAX_COUNTER_OVERHEAD", 0.15)
    max_trace = _env_float("REPRO_BENCH_OBS_MAX_TRACE_OVERHEAD", 0.30)
    assert counter_overhead <= max_counter, (
        f"counters-on overhead {counter_overhead:.1%} exceeds "
        f"{max_counter:.0%}"
    )
    assert trace_overhead <= max_trace, (
        f"tracing overhead {trace_overhead:.1%} exceeds {max_trace:.0%}"
    )
