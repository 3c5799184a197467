"""One workload in one process: set up, signal READY, repeat, report.

``bench/run.py`` launches this file with a scrubbed environment
(``PYTHONHASHSEED=0``, ``REPRO_KERNELS`` fixed, ``REPRO_OBS`` unset) and
reads two things from its standard output: the line ``READY`` as soon as
set-up and warm-up are done (``setup_s`` is spawn -> that line), and one
JSON object when the repetitions are over.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import sys
from time import perf_counter

import harness


def timed_repetition(workload, profiler=None):
    """Fresh state, collected garbage, then the timed region and nothing else."""
    state = workload.fresh(numbered=profiler is not None)
    gc.collect()
    if profiler is not None:
        profiler.enable()
    start = perf_counter()
    workload.run(state)
    end = perf_counter()
    if profiler is not None:
        profiler.disable()
    repetition = workload.finish(state)
    repetition.start, repetition.end = start, end
    return repetition


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def measure(
    workload,
    reps: int,
    pins: dict | None,
    trace: bool = False,
    calibration_reference_s: float | None = None,
) -> dict:
    """Run ``reps`` timed repetitions (plus a traced one) and summarise them.

    A calibration pass runs before the first repetition and after each
    one; every reported time is divided by the host slowdown those
    passes show (1.0 when no reference is given).
    """
    repetitions = []
    passes = [harness.calibrate()] if calibration_reference_s else []
    for _ in range(reps):
        if repetitions:
            repetitions[-1].state = None  # only the last ledger is drained
        repetitions.append(timed_repetition(workload))
        if calibration_reference_s:
            passes.append(harness.calibrate())
    slowdown = (
        harness.host_slowdown(passes, calibration_reference_s) if passes else 1.0
    )
    events = workload.events
    calls = len(repetitions[0].stamps) // 2

    # -- output checks --------------------------------------------------
    reference = pins if pins is not None else {
        "digest": repetitions[0].digest,
        "fingerprint": repetitions[0].fingerprint,
    }
    against = "pin" if pins is not None else "first repetition"
    bad = [
        index
        for index, repetition in enumerate(repetitions)
        if repetition.digest != reference["digest"]
        or len(repetition.stamps) != 2 * calls
    ]
    checks = [
        _check(
            "decision_digest",
            not bad,
            f"{reps - len(bad)}/{reps} repetitions match the {against} "
            f"{reference['digest'][:12]}",
        ),
        _check(
            "ledger_fingerprint",
            all(r.fingerprint == reference["fingerprint"] for r in repetitions),
            f"end-state equal across repetitions and to the {against}",
        ),
    ]
    last = repetitions[-1]
    share = last.rejected_bw / last.offered_bw if last.offered_bw else None
    if pins is not None and share is not None:
        checks.append(
            _check(
                "rejected_bw_share",
                share == pins["rejected_bw_share"],
                f"{share!r} against pinned {pins['rejected_bw_share']!r}",
            )
        )
    checks += workload.drain(last)
    last.state = None
    failed = events * len(bad)
    if not failed and not all(check["ok"] for check in checks):
        failed = events  # a broken end-state condemns the repetition it ended

    # -- timing -----------------------------------------------------------
    good = [r for index, r in enumerate(repetitions) if index not in bad] or repetitions
    bounds = harness.segment_bounds(calls)
    segments = [
        harness.segment_durations(r.start, r.end, r.stamps, bounds) for r in good
    ]
    raw_floor = harness.noise_floor_wall(segments)
    floor = raw_floor / slowdown
    walls = [r.end - r.start for r in repetitions]
    latency = [
        seconds / slowdown
        for seconds in harness.per_call_minimum([r.stamps for r in good])
    ]
    percentiles = harness.latency_percentiles(latency)
    tail_name, tail = harness.tail_latency(percentiles)
    proxy_cost = harness.proxy_cost_seconds()
    overhead = proxy_cost * calls / raw_floor
    checks.append(
        _check(
            "harness_overhead",
            overhead < 0.01,
            f"timing proxy costs {overhead:.3%} of the noise-floor wall",
        )
    )
    rejected_time = sum(
        seconds for seconds, admitted in zip(latency, last.outcomes) if not admitted
    )
    result = {
        "workload": workload.name,
        "input_id": workload.input_id,
        "seed": workload.seed,
        "events": events,
        "attempted": events * reps,
        "failed": failed,
        "correct": all(check["ok"] for check in checks),
        "checks": checks,
        "reps": reps,
        "segments": len(segments[0]),
        "calls": calls,
        "walls_s": walls,
        "raw_floor_wall_s": raw_floor,
        "host_slowdown": slowdown,
        "floor_wall_s": floor,
        "events_per_s": events / floor,
        "place_p50_us": percentiles["p50"] * 1e6,
        "place_tail_us": tail * 1e6,
        "tail_percentile": tail_name,
        "rejected_bw_share": share,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "noise": {
            "rep_spread": max(walls) / min(walls),
            "floor_gap": min(walls) / raw_floor,
        },
        "harness": {"proxy_ns_per_call": proxy_cost * 1e9, "overhead_share": overhead},
        "digest": last.digest,
        "fingerprint": last.fingerprint,
        "place_reject_share": rejected_time / sum(latency) if latency else 0.0,
        "cohort_mean": (
            events / last.extra["cohorts"] if "cohorts" in last.extra else 0.0
        ),
        "index_entries": last.extra.get("index_entries", 0),
    }
    if workload.loop_kind == "grid":
        result.update(_grid_summary(good, latency))
    if trace:
        result["layers"] = traced_repetition(workload, result, bounds)
    return result


def _grid_summary(good, latency) -> dict:
    """Per-kind share of the grid and the encode cost, from per-trial minima."""
    kinds = good[0].extra["kinds"]
    total = sum(latency)
    by_kind: dict[str, float] = {}
    for kind, seconds in zip(kinds, latency):
        by_kind[kind] = by_kind.get(kind, 0.0) + seconds
    encode = [min(column) for column in zip(*(r.extra["encode_s"] for r in good))]
    return {
        "kind_shares": {kind: seconds / total for kind, seconds in sorted(by_kind.items())},
        "encode_us_per_trial": sum(encode) / len(encode) * 1e6,
    }


def traced_repetition(workload, result: dict, bounds: list[int]) -> dict:
    """One extra repetition under ``cProfile``; per-layer metrics and spans."""
    profiler = cProfile.Profile(builtins=False)
    repetition = timed_repetition(workload, profiler)
    repetition.state = None
    start, end = repetition.start, repetition.end
    traced_wall = end - start
    view = harness.ProfileView(profiler.getstats())
    events = workload.events
    metrics: dict[str, float] = {}
    table = view.layer_table()
    for layer, row in table.items():
        metrics[f"{layer}.self_us_per_event"] = row["self_s"] * 1e6 / events
        metrics[f"{layer}.calls_per_event"] = row["calls"] / events
    covered = sum(row["self_s"] for row in table.values())

    placers = ("placement/cloudmirror.py", "placement/oktopus.py", "placement/secondnet.py")
    ledgers = ("topology/ledger.py", "temporal/admission.py")
    places = sum(view.calls(module, "place") for module in placers)
    per_place = 1.0 / places if places else 0.0
    releases = view.calls("placement/state.py", "release")
    applied = sum(
        view.calls(module, "adjust_uplink_id")
        + view.calls_from(module, "reserve_slots", "_apply_slots")
        for module in ledgers
    )
    undone = sum(
        view.calls_from(module, "rollback", "_update_overcommit", "_apply_slots")
        for module in ledgers
    )
    gated = events - result["calls"] if workload.loop_kind == "service" else 0
    metrics.update(
        {
            "simulation.service.gate_reject_share": gated / events,
            "simulation.service.cohort_mean": result["cohort_mean"],
            "placement.place_calls_per_event": places / events,
            "placement.place_reject_share": (
                result["place_reject_share"] if workload.loop_kind != "grid" else 0.0
            ),
            "placement.release_us": (
                view.cumulative("placement/state.py", "release") / releases * 1e6
                if releases
                else 0.0
            ),
            "placement.candidates.lookups_per_place": view.calls(
                "placement/candidates.py", "best_fit", "most_free", "rack_candidates"
            )
            * per_place,
            "placement.candidates.repairs_per_event": view.calls(
                "placement/candidates.py", "touch_path"
            )
            / events,
            "placement.candidates.index_entries": result["index_entries"],
            "placement.state.requirement_evals_per_place": view.calls(
                "placement/state.py", "requirement", "generic"
            )
            * per_place,
            "topology.ledger.adjusts_per_place": sum(
                view.calls(module, "adjust_uplink_id") for module in ledgers
            )
            * per_place,
            "topology.ledger.rollbacks_per_place": sum(
                view.calls(module, "rollback") for module in ledgers
            )
            * per_place,
            "topology.ledger.commit_share": (
                1.0 - undone / applied if applied else 1.0
            ),
            "temporal.admission.set_ratios_per_event": view.calls(
                "temporal/admission.py", "set_ratios"
            )
            / events,
            "results.encode_us_per_trial": result.get("encode_us_per_trial", 0.0),
            "trace.overhead_ratio": traced_wall / result["raw_floor_wall_s"],
            "trace.coverage": covered / traced_wall,
        }
    )
    ordinals = repetition.ordinals or list(range(result["calls"]))
    spans = harness.chrome_trace(
        workload.name, start, end, repetition.stamps, ordinals, bounds, workload.call_name
    )
    path = harness.OUT_DIR / f"trace-{workload.name}-{workload.seed}.json"
    harness.dump_json(path, spans)
    return {
        "metrics": metrics,
        "traced_wall_s": traced_wall,
        "top_other": view.top_other(),
        "spans_file": str(path),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reps", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--held-out", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--no-pins", action="store_true")
    args = parser.parse_args(argv)

    harness.pin_to_one_core()
    import workloads  # the repro imports are part of set-up

    workload = workloads.build(args.workload, args.seed, held_out=args.held_out)
    workload.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    from repro import _kernels

    spec = harness.load_spec()
    pins = None
    if not args.no_pins:
        pins = spec["workloads"][args.workload]["pins"].get(workload.input_id)
    result = measure(
        workload,
        args.reps,
        pins,
        trace=args.trace,
        calibration_reference_s=spec["calibration_reference_s"],
    )
    result["pinned"] = pins is not None
    result["env"] = harness.environment(
        kernel_backend=_kernels.backend,
        repro_kernels=os.environ.get("REPRO_KERNELS"),
        repetitions=args.reps,
        max_segments=harness.MAX_SEGMENTS,
        seed=args.seed,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
