#!/usr/bin/env python3
"""The repository's one benchmark: four workloads, one number per question.

    python bench/run.py                       # every workload, seed 2014
    python bench/run.py --workload bing_churn --seed 3
    python bench/run.py --trace               # + per-layer table and spans
    python bench/run.py --held-out            # the seed nothing was tuned on
    python bench/run.py --agree 10            # do two sets of runs agree?
    python bench/run.py --repin               # regenerate the digests

Every workload runs in its own child process (``bench/child.py``): one
thread, one core, ``PYTHONHASHSEED=0``, ``REPRO_KERNELS`` fixed,
``REPRO_OBS`` unset.  The last line on standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics, or with ``--trace`` the per-layer ones — and the exit status is
non-zero when any output check failed.  Definitions: ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
from harness import BENCH_DIR, REPO_ROOT, SRC_ROOT

CHILD = BENCH_DIR / "child.py"
SPEC_PATH = BENCH_DIR / "workloads.json"
CONTRACT_PATH = REPO_ROOT / "BENCHMARK.json"
SETUP_LAUNCHES = 5
MIN_REPETITIONS = 5
TRACE_REPETITIONS = 3
CHILD_TIMEOUT = 170  # seconds; the driver allows a run 180


def load_contract() -> dict:
    with open(CONTRACT_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def repetitions(spec: dict, name: str, seconds: float) -> int:
    """K for one workload: its pinned count, scaled by ``--seconds``, never under 5."""
    pinned = spec["workloads"][name]["repetitions"]
    return max(MIN_REPETITIONS, round(pinned * seconds / spec["run_seconds"]))


def child_environment(kernels: str) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_OBS", None)
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_KERNELS"] = kernels
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_ROOT) + (os.pathsep + inherited if inherited else "")
    return env


def launch(workload: str, seed: int, kernels: str, extra: list[str]):
    """Start a child; returns (process, seconds from spawn to its READY line)."""
    command = [
        sys.executable,
        str(CHILD),
        "--workload",
        workload,
        "--seed",
        str(seed),
        *extra,
    ]
    spawned = time.perf_counter()
    process = subprocess.Popen(
        command,
        cwd=REPO_ROOT,
        env=child_environment(kernels),
        stdout=subprocess.PIPE,
        text=True,
    )
    line = process.stdout.readline()
    ready = time.perf_counter() - spawned
    if line.strip() != "READY":
        process.kill()
        process.wait()
        harness.fail(f"{workload}: child died during set-up (got {line!r})", 1)
    return process, ready


def run_workload(
    name: str,
    seed: int,
    reps: int,
    kernels: str,
    trace: bool,
    held_out: bool,
    no_pins: bool = False,
) -> dict:
    """One measured child plus the extra set-up launches; the child's report."""
    flags = ["--held-out"] if held_out else []
    extra = ["--reps", str(reps), *flags]
    if trace:
        extra.append("--trace")
    if no_pins:
        extra.append("--no-pins")
    process, ready = launch(name, seed, kernels, extra)
    try:
        output, _ = process.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        harness.fail(f"{name}: child exceeded {CHILD_TIMEOUT} s", 1)
    if process.returncode != 0:
        harness.fail(f"{name}: child exited with status {process.returncode}", 1)
    result = json.loads(output.strip().splitlines()[-1])
    launches = [ready]
    if not trace:
        for _ in range(SETUP_LAUNCHES - 1):
            probe, ready = launch(
                name, seed, kernels, ["--reps", "0", "--setup-only", *flags]
            )
            probe.communicate(timeout=CHILD_TIMEOUT)
            launches.append(ready)
    result["setup_launches_s"] = launches
    result["setup_s"] = min(launches)
    if result["env"]["kernel_backend"] != kernels:
        harness.fail(
            f"{name}: asked for the {kernels!r} kernels but "
            f"{result['env']['kernel_backend']!r} are active (extension not built?)",
            1,
        )
    return result


# ----------------------------------------------------------------------
# the contract line
# ----------------------------------------------------------------------
def end_to_end(result: dict) -> dict:
    """The BENCHMARK.json end-to-end metrics of one workload's report.

    The contract wants every metric on every workload.  ``paper_grid``
    times 152 trials, which support a p90 but no p99, so the
    ``place_p99_us`` slot holds the highest percentile the sample
    supports (``harness.tail_latency``; the report names which).
    """
    return {
        "setup_s": result["setup_s"],
        "events_per_s": result["events_per_s"],
        "place_p50_us": result["place_p50_us"],
        "place_p99_us": result["place_tail_us"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def contract_line(results: list[dict], trace: bool, contract: dict) -> dict:
    section = contract["per_layer" if trace else "end_to_end"]
    metrics = {}
    for result in results:
        values = result["layers"]["metrics"] if trace else end_to_end(result)
        prefix = f"{result['workload']}/" if len(results) > 1 else ""
        for metric in section:
            metrics[prefix + metric["name"]] = {
                "value": values[metric["name"]],
                "unit": metric["unit"],
            }
    return {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# the human report
# ----------------------------------------------------------------------
def print_report(result: dict, spec: dict, out=sys.stdout) -> None:
    name = result["workload"]
    grid = name == "paper_grid"
    unit = "trials" if grid else "arrivals"
    env = result["env"]
    say = functools.partial(print, file=out)
    say(
        f"== {name}  input {result['input_id']}, seed {result['seed']}, "
        f"K={result['reps']} repetitions x S={result['segments']} segments, "
        f"kernels={env['kernel_backend']}"
    )
    say(f"   {spec['workloads'][name]['why']}")
    launches = ", ".join(f"{s:.3f}" for s in result["setup_launches_s"])
    say(f"  setup_s            {result['setup_s']:12.4f} s        fastest of [{launches}]")
    say(
        f"  {'trials_per_s' if grid else 'events_per_s':18s} {result['events_per_s']:12.2f} {unit}/s"
        f"  {result['events']} {unit} / {result['floor_wall_s']:.4f} s "
        f"(noise-floor wall {result['raw_floor_wall_s']:.4f} s / host slowdown "
        f"{result['host_slowdown']:.3f})"
    )
    label = "trial" if grid else "place"
    say(
        f"  {label}_p50_us       {result['place_p50_us']:12.1f} us       "
        f"{result['calls']} samples, each the fastest repetition of that call"
    )
    tail = result["tail_percentile"]
    note = "" if tail == "p99" else "       fills the place_p99_us slot: too few samples for a p99"
    say(f"  {f'{label}_{tail}_us':18s} {result['place_tail_us']:12.1f} us{note}")
    if result["rejected_bw_share"] is not None:
        say(f"  rejected_bw_share  {result['rejected_bw_share']:12.6f} ratio")
    say(f"  peak_rss_mb        {result['peak_rss_mb']:12.1f} MiB")
    say(
        f"  failed_share       {result['failed'] / result['attempted']:12.6f} ratio    "
        f"{result['failed']} failed / {result['attempted']} attempted"
    )
    noise = result["noise"]
    say(
        f"  noise.rep_spread {noise['rep_spread']:.3f}  noise.floor_gap {noise['floor_gap']:.3f}  "
        f"harness.overhead_share {result['harness']['overhead_share']:.4%}"
    )
    if grid:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in result["kind_shares"].items())
        say(f"  share of grid wall by kind: {shares}")
    for check in result["checks"]:
        say(f"  [{'ok' if check['ok'] else 'FAILED'}] {check['name']}: {check['detail']}")
    if "layers" in result:
        print_layers(result, say)
    say()


def print_layers(result: dict, say) -> None:
    layers = result["layers"]
    metrics = layers["metrics"]
    total = sum(metrics[f"{layer}.self_us_per_event"] for layer in harness.LAYERS)
    say(
        f"  traced repetition: {layers['traced_wall_s']:.3f} s, "
        f"overhead x{metrics['trace.overhead_ratio']:.2f}, "
        f"coverage {metrics['trace.coverage']:.3f}, spans in {layers['spans_file']}"
    )
    say(f"  {'layer':24s} {'self us/event':>14s} {'share':>7s} {'calls/event':>12s}")
    for layer in harness.LAYERS:
        self_us = metrics[f"{layer}.self_us_per_event"]
        if self_us:
            say(
                f"  {layer:24s} {self_us:14.3f} {self_us / total:7.1%} "
                f"{metrics[f'{layer}.calls_per_event']:12.3f}"
            )
    top = ", ".join(f"{name} {seconds:.3f}s" for name, seconds in layers["top_other"])
    say(f"  largest files inside 'other': {top}")
    for key, value in metrics.items():
        if not key.endswith(("self_us_per_event", ".calls_per_event")):
            say(f"  {key:48s} {value:14.4f}")


# ----------------------------------------------------------------------
# --agree
# ----------------------------------------------------------------------
def agree(args, spec: dict, contract: dict, names: list[str]) -> int:
    """Two interleaved sets of ``--agree`` runs; run i uses seed + i in both."""
    sets = ([], [])
    for index in range(args.agree):
        for side in sets:
            side.append(
                {
                    name: run_workload(
                        name,
                        args.seed + index,
                        repetitions(spec, name, args.seconds),
                        args.kernels,
                        False,
                        False,
                    )
                    for name in names
                }
            )
            for name, result in side[-1].items():
                noise = result["noise"]
                print(
                    f"run {index} set {'AB'[sets.index(side)]} {name}: "
                    f"noise.rep_spread {noise['rep_spread']:.3f} "
                    f"noise.floor_gap {noise['floor_gap']:.3f} correct={result['correct']}",
                    flush=True,
                )
    failures = 0
    summary = {}
    for name in names:
        print(f"== {name}")
        summary[name] = {}
        for metric in contract["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            columns = [[end_to_end(run[name])[key] for run in side] for side in sets]
            quartiles = [statistics.quantiles(column, n=4) for column in columns]
            spreads = [harness.quartile_spread(column) for column in columns]
            shift = harness.worsening(quartiles[0][1], quartiles[1][1], metric["better"])
            verdict = "ok"
            if key != "setup_s" and max(spreads) > bound / 2:
                verdict = "SPREAD"
            if abs(shift) > bound:
                verdict = "DISAGREE"
            failures += verdict != "ok"
            sides = " | ".join(
                f"{label} {q[1]:.6g} ({q[0]:.5g}..{q[2]:.5g}) spread {spread:.2%}"
                for label, q, spread in zip("AB", quartiles, spreads)
            )
            print(
                f"  {key:14s} {sides} | medians differ {shift:+.2%}, "
                f"bound {bound:.0%}  {verdict}"
            )
            summary[name][key] = {
                "unit": metric["unit"],
                "bound": bound,
                "quartiles": quartiles,
                "spreads": spreads,
                "median_shift": shift,
            }
        exact = ("rejected_bw_share", "failed", "digest", "fingerprint")
        for first, second in zip(*sets):
            for key in exact:
                if first[name][key] != second[name][key]:
                    failures += 1
                    print(f"  {key} differs between the sets at seed {first[name]['seed']}")
        if not all(run[name]["correct"] for side in sets for run in side):
            failures += 1
            print("  an output check failed")
        slowdowns = sorted(run[name]["host_slowdown"] for side in sets for run in side)
        summary[name]["host_slowdown_range"] = [slowdowns[0], slowdowns[-1]]
    print(f"agree: {'ok' if not failures else f'{failures} problem(s)'}")
    if args.json:
        harness.dump_json(
            Path(args.json),
            {
                "what": f"two interleaved sets of {args.agree} runs, seeds "
                f"{args.seed}..{args.seed + args.agree - 1}; quartiles per set (A, B)",
                "environment": sets[0][0][names[0]]["env"],
                "agreed": not failures,
                "workloads": summary,
            },
        )
    return 1 if failures else 0


# ----------------------------------------------------------------------
# --repin
# ----------------------------------------------------------------------
def repin(args, spec: dict, names: list[str]) -> int:
    """Regenerate the pinned digests; ``src/`` must equal the commit."""
    status = subprocess.run(
        ["git", "status", "--porcelain", "--", "src"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if status.returncode != 0 or status.stdout.strip():
        harness.fail(
            "--repin pins the committed system: commit or revert src/ first\n"
            + (status.stdout or status.stderr)
        )
    for name in names:
        for held_out in (False, True):
            seed = spec["held_out_seed"] if held_out else spec["default_seed"]
            result = run_workload(
                name, seed, 2, args.kernels, False, held_out, no_pins=True
            )
            if not result["correct"]:
                harness.fail(f"{name}: repetitions disagree, nothing pinned", 1)
            pin = {
                "digest": result["digest"],
                "fingerprint": result["fingerprint"],
                "rejected_bw_share": result["rejected_bw_share"],
            }
            spec["workloads"][name]["pins"][result["input_id"]] = pin
            print(f"pinned {name} {result['input_id']}: {pin['digest'][:16]}")
    harness.dump_json(SPEC_PATH, spec)
    return 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    spec = harness.load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(spec["workloads"]), default=None)
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument(
        "--seconds",
        type=float,
        default=spec["run_seconds"],
        help="measuring time; repetitions scale with it (workloads.json gives "
        "each workload's count at run_seconds, and 5 is the floor)",
    )
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--kernels", choices=("py", "c"), default="py")
    parser.add_argument("--held-out", action="store_true")
    parser.add_argument("--json", nargs="?", const=str(harness.OUT_DIR / "report.json"))
    parser.add_argument("--agree", nargs="?", type=int, const=10, default=0)
    parser.add_argument("--repin", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC_ROOT / "repro").is_dir():
        harness.fail(f"no system to measure: {SRC_ROOT / 'repro'} is missing")
    contract = load_contract()
    names = [args.workload] if args.workload else list(spec["workloads"])
    if args.repin:
        return repin(args, spec, names)
    if args.agree:
        return agree(args, spec, contract, names)

    results = []
    for name in names:
        reps = TRACE_REPETITIONS if args.trace else repetitions(spec, name, args.seconds)
        held_out = args.held_out
        seed = spec["held_out_seed"] if held_out else args.seed
        result = run_workload(name, seed, reps, args.kernels, bool(args.trace), held_out)
        print_report(result, spec)
        results.append(result)
    if args.json:
        harness.dump_json(Path(args.json), {"results": results})
    line = contract_line(results, bool(args.trace), contract)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
