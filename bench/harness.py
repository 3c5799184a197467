"""Estimators, layer attribution and reporting helpers for ``bench/run.py``.

Nothing here imports ``repro``: the estimators are pure functions over
timestamps, the layer map is a function of file paths, and the layer
table is read out of a ``cProfile`` run by the caller's choice of
functions — so ``bench/test_harness.py`` can pin all of it without
building a datacenter.
"""

from __future__ import annotations

import bisect
import heapq
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_ROOT = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"  # spans and JSON reports; ignored by git

MAX_SEGMENTS = 256
# A percentile is reported only when at least ten samples lie beyond it.
P99_MIN_SAMPLES = 1000
P90_MIN_SAMPLES = 100

# Layer -> the ``src/repro`` module (``.py`` file) or package it owns.
# Everything else — the rest of ``repro``, the standard library, numpy's
# Python side and the benchmark's own files — is ``other``.
LAYER_MODULES = {
    "simulation.arrivals": "simulation/arrivals.py",
    "simulation.service": "simulation/service.py",
    "placement.cloudmirror": "placement/cloudmirror.py",
    "placement.candidates": "placement/candidates.py",
    "placement.state": "placement/state.py",
    "placement.ha": "placement/ha.py",
    "placement.oktopus": "placement/oktopus.py",
    "placement.secondnet": "placement/secondnet.py",
    "topology.ledger": "topology/ledger.py",
    "topology.failures": "topology/failures.py",
    "temporal.admission": "temporal/admission.py",
    "kernels": "_kernels/",
    "core": "core/",
    "models": "models/",
    "enforcement": "enforcement/",
    "inference": "inference/",
    "engine": "engine/",
    "results": "results/",
    "obs": "obs/",
}
LAYERS = (*LAYER_MODULES, "other")


# ----------------------------------------------------------------------
# timing estimators
# ----------------------------------------------------------------------
class TimedPlacer:
    """Thin proxy around a placer: two clock reads per admission call.

    ``records`` receives ``(start, end, result)`` per call, from which
    the caller derives the per-arrival latency, the segment boundaries,
    the decision bytes and the live allocations without touching the
    event loop.  Arrivals the loop screens out before the placer cost
    nothing here.
    """

    __slots__ = ("_place", "_record", "records")

    def __init__(self, placer) -> None:
        self._place = placer.place
        self.records: list[tuple] = []
        self._record = self.records.append

    def place(self, tag):
        start = perf_counter()
        result = self._place(tag)
        self._record((start, perf_counter(), result))
        return result

    def stamps(self) -> list[float]:
        """The flat ``start, end, start, end, ...`` list the estimators take."""
        return [stamp for record in self.records for stamp in record[:2]]

    def results(self) -> list:
        return [record[2] for record in self.records]


def segment_bounds(calls: int, segments: int = MAX_SEGMENTS) -> list[int]:
    """Call ordinals at which a repetition is cut (same in every repetition)."""
    if calls <= 0:
        return []
    step = -(-calls // segments)
    return list(range(step, calls, step))


def segment_durations(
    start: float, end: float, stamps: list[float], bounds: list[int]
) -> list[float]:
    """Durations of the segments ``start | call[b0] | call[b1] | ... | end``.

    ``stamps`` is the flat ``start, end`` list a :class:`TimedPlacer`
    records; a boundary falls at the *start* stamp of its call.
    """
    edges = [start, *(stamps[2 * ordinal] for ordinal in bounds), end]
    return [later - earlier for earlier, later in zip(edges, edges[1:])]


def noise_floor_wall(per_repetition: list[list[float]]) -> float:
    """Sum over segments of the fastest repetition of each segment."""
    if not per_repetition:
        raise ValueError("need at least one repetition")
    if len({len(segments) for segments in per_repetition}) != 1:
        raise ValueError("repetitions were cut into different segment counts")
    return sum(min(column) for column in zip(*per_repetition))


def per_call_minimum(per_repetition: list[list[float]]) -> list[float]:
    """Per-call duration, minimised across repetitions of the same call."""
    if len({len(stamps) for stamps in per_repetition}) != 1:
        raise ValueError("repetitions made different numbers of calls")
    durations = [
        [stamps[i + 1] - stamps[i] for i in range(0, len(stamps), 2)]
        for stamps in per_repetition
    ]
    return [min(column) for column in zip(*durations)]


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def latency_percentiles(samples: list[float]) -> dict[str, float | None]:
    """Median, p90, p99 and maximum, in the samples' unit.

    A percentile needs ten samples beyond it: p99 is ``None`` under
    1,000 samples and p90 under 100.
    """
    if not samples:
        return {"p50": None, "p90": None, "p99": None, "max": None}
    ordered = sorted(samples)
    count = len(ordered)
    return {
        "p50": statistics.median(ordered),
        "p90": nearest_rank(ordered, 0.90) if count >= P90_MIN_SAMPLES else None,
        "p99": nearest_rank(ordered, 0.99) if count >= P99_MIN_SAMPLES else None,
        "max": ordered[-1],
    }


def tail_latency(percentiles: dict) -> tuple[str, float | None]:
    """The highest percentile the sample supports: p99, else p90, else the maximum."""
    for key in ("p99", "p90"):
        if percentiles[key] is not None:
            return key, percentiles[key]
    return "max", percentiles["max"]


# ----------------------------------------------------------------------
# host-speed correction
# ----------------------------------------------------------------------
CALIBRATION_CHUNKS = 96


def calibrate(chunks: int = CALIBRATION_CHUNKS, steps: int = 1000) -> list[float]:
    """One pass of a frozen interpreter-bound loop; seconds per chunk.

    The mix (dict updates, heap pushes and pops, ``insort`` into a short
    list, tuple packing, float arithmetic) is what the placers are made
    of, and nothing in it calls ``repro`` — so the only thing that can
    move its time is the host.  Never edit it: every normalised metric
    is relative to this loop.
    """
    durations = []
    for _ in range(chunks):
        start = perf_counter()
        table: dict[int, int] = {}
        heap: list = []
        ordered: list = []
        total = 0.0
        for i in range(steps):
            key = (i * 7919) % 1013
            table[key] = table.get(key, 0) + i
            heapq.heappush(heap, (key, i))
            if i % 3 == 0:
                heapq.heappop(heap)
            bisect.insort(ordered, (key, i))
            if len(ordered) > 200:
                del ordered[0]
            total += key * 0.5 / (i + 1)
            packed = (key, i, total)
            total += packed[0] - packed[1] * 1e-9
        durations.append(perf_counter() - start)
    return durations


def host_slowdown(passes: list[list[float]], reference_s: float) -> float:
    """Noise floor of the calibration passes ÷ its pinned reference.

    The passes are interleaved with the workload's repetitions, so their
    floor (per chunk, the fastest pass) sees the same host the
    repetitions saw; dividing a measured time by this factor states it
    at the reference host speed.
    """
    return noise_floor_wall(passes) / reference_s


def proxy_cost_seconds(calls: int = 20_000, batches: int = 5) -> float:
    """Per-call cost of :class:`TimedPlacer` against a no-op placer."""

    class _Noop:
        @staticmethod
        def place(tag):
            return None

    noop = _Noop()

    def batch(target) -> float:
        place = target.place
        start = perf_counter()
        for _ in range(calls):
            place(None)
        return perf_counter() - start

    bare = min(batch(noop) for _ in range(batches))
    timed = min(batch(TimedPlacer(noop)) for _ in range(batches))
    return max(0.0, timed - bare) / calls


# ----------------------------------------------------------------------
# run-to-run agreement
# ----------------------------------------------------------------------
def quartile_spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    first, median, third = statistics.quantiles(values, n=4)
    return (third - first) / median if median else 0.0


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


# ----------------------------------------------------------------------
# layer attribution
# ----------------------------------------------------------------------
def layer_of(filename: str) -> str:
    """The layer a source file's self time is charged to."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return "other"
    relative = path[at + len(marker):]
    for layer, owned in LAYER_MODULES.items():
        if relative == owned or (owned.endswith("/") and relative.startswith(owned)):
            return layer
    return "other"


class ProfileView:
    """Read-only queries over a finished ``cProfile.Profile``.

    Built from ``profiler.getstats()`` rather than ``pstats``: pstats keys
    functions by ``(file, line, name)`` and silently drops one of two
    that collide, which every pair of dataclass ``__init__`` methods
    does (both are ``<string>:2 __init__``).
    """

    def __init__(self, entries) -> None:
        self._rows: dict[tuple, list] = {}  # key -> [calls, self_s, cumulative_s]
        self._edges: dict[tuple, list] = {}  # (caller, callee) -> [calls, self_s]
        for entry in entries:
            caller = self._key(entry.code)
            row = self._rows.setdefault(caller, [0, 0.0, 0.0])
            row[0] += entry.callcount
            row[1] += entry.inlinetime
            row[2] += entry.totaltime
            for sub in entry.calls or ():
                edge = self._edges.setdefault((caller, self._key(sub.code)), [0, 0.0])
                edge[0] += sub.callcount
                edge[1] += sub.inlinetime

    @staticmethod
    def _key(code) -> tuple[str, str]:
        if isinstance(code, str):  # a builtin; absent under builtins=False
            return ("~", code)
        return (code.co_filename.replace("\\", "/"), code.co_name)

    @staticmethod
    def _in(key: tuple[str, str], module: str, names: tuple[str, ...]) -> bool:
        return key[1] in names and key[0].endswith("/repro/" + module)

    def calls(self, module: str, *names: str) -> int:
        return sum(r[0] for k, r in self._rows.items() if self._in(k, module, names))

    def cumulative(self, module: str, *names: str) -> float:
        return sum(r[2] for k, r in self._rows.items() if self._in(k, module, names))

    def calls_from(self, module: str, caller: str, *names: str) -> int:
        """Calls of ``names`` made directly from ``caller`` (same module)."""
        return sum(
            edge[0]
            for (source, target), edge in self._edges.items()
            if self._in(source, module, (caller,)) and self._in(target, module, names)
        )

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Self seconds and call counts per layer (``other`` included).

        Generated code has no file (a dataclass ``__init__`` lives in
        ``<string>``), so it is charged to the layer that calls it.
        """
        table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for (filename, _name), row in self._rows.items():
            if not filename.startswith("<"):
                entry = table[layer_of(filename)]
                entry["calls"] += row[0]
                entry["self_s"] += row[1]
        for (source, target), edge in self._edges.items():
            if target[0].startswith("<"):
                entry = table[layer_of(source[0])]
                entry["calls"] += edge[0]
                entry["self_s"] += edge[1]
        return table

    def top_other(self, count: int = 3) -> list[tuple[str, float]]:
        """The files that dominate ``other``, for the human report."""
        by_file: dict[str, float] = {}
        for (filename, _name), row in self._rows.items():
            if layer_of(filename) == "other" and not filename.startswith("<"):
                by_file[filename] = by_file.get(filename, 0.0) + row[1]
        ranked = sorted(by_file.items(), key=lambda item: -item[1])[:count]
        return [(short_path(name), seconds) for name, seconds in ranked]


def short_path(filename: str) -> str:
    path = filename.replace("\\", "/")
    for marker in ("/repro/", "/bench/", "/site-packages/", "/lib/"):
        at = path.rfind(marker)
        if at >= 0:
            return path[at + 1:]
    return path


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def chrome_trace(
    workload: str,
    start: float,
    end: float,
    stamps: list[float],
    ordinals: list[int],
    bounds: list[int],
    call_name: str,
) -> dict:
    """Repetition -> segment -> admission-call spans as Chrome-trace JSON.

    Every span carries ``id`` and ``parent``; a call's id is its arrival
    (or trial) ordinal, which is also how it is matched across
    repetitions.
    """

    def span(name, begin, finish, span_id, parent):
        return {
            "name": name,
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": (begin - start) * 1e6,
            "dur": (finish - begin) * 1e6,
            "args": {"id": span_id, "parent": parent},
        }

    events = [span(f"repetition:{workload}", start, end, "rep", None)]
    edges = [start, *(stamps[2 * ordinal] for ordinal in bounds), end]
    cuts = [0, *bounds, len(ordinals)]
    for index, (begin, finish) in enumerate(zip(edges, edges[1:])):
        segment_id = f"seg{index}"
        events.append(span("segment", begin, finish, segment_id, "rep"))
        for call in range(cuts[index], cuts[index + 1]):
            events.append(
                span(
                    call_name,
                    stamps[2 * call],
                    stamps[2 * call + 1],
                    ordinals[call],
                    segment_id,
                )
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(**extra) -> dict:
    """The block every report carries, so two reports can be compared."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard repro dependency
        numpy_version = "missing"
    affinity = (
        sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else None
    )
    return {
        "git_commit": _git_commit(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "repro_obs": os.environ.get("REPRO_OBS"),
        **extra,
    }


def pin_to_one_core() -> None:
    """Pin this process to the last core it may run on (Linux only)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def load_spec() -> dict:
    """``workloads.json``: parameters, pins, repetitions, calibration reference."""
    with open(BENCH_DIR / "workloads.json", encoding="utf-8") as handle:
        return json.load(handle)


def dump_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


def fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(code)
