"""Tier-1 guard for the benchmark: estimators, layer map, API surface.

Collected by the plain ``pytest`` run (it lives outside ``benchmarks/``,
so the ``slow`` auto-marker does not apply).  The smoke test drives all
four workloads at 1 % scale through their digest and drain checks, so a
refactor that breaks a name the benchmark calls fails here, not in the
benchmark pipeline.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import child
import harness
import run
import workloads


# ----------------------------------------------------------------------
# estimators
# ----------------------------------------------------------------------
def _repetition(call_durations, gaps, origin=100.0):
    """Stamps of one repetition: gap, call, gap, call, ..., final gap."""
    now = origin
    stamps = []
    for gap, duration in zip(gaps, call_durations):
        now += gap
        stamps += (now, now + duration)
        now += duration
    return origin, now + gaps[-1], stamps


def test_segment_minimum_ignores_noise_that_hits_different_segments():
    calls = [1.0] * 8
    clean = [0.5] * 9
    bounds = harness.segment_bounds(len(calls), segments=4)
    assert bounds == [2, 4, 6]
    repetitions = []
    for noisy_call in (1, 4, 7):  # each repetition is slow somewhere else
        durations = list(calls)
        durations[noisy_call] += 10.0
        start, end, stamps = _repetition(durations, clean)
        repetitions.append(harness.segment_durations(start, end, stamps, bounds))
    start, end, stamps = _repetition(calls, clean)
    quiet = end - start
    assert all(sum(segments) > quiet + 9 for segments in repetitions)
    assert harness.noise_floor_wall(repetitions) == pytest.approx(quiet)


def test_segments_partition_the_repetition_and_stay_under_the_cap():
    for calls in (0, 1, 255, 256, 257, 7066, 100_000):
        bounds = harness.segment_bounds(calls)
        assert len(bounds) + 1 <= harness.MAX_SEGMENTS
        assert bounds == sorted(set(bounds)) and all(0 < b < calls for b in bounds)
    start, end, stamps = _repetition([1.0] * 10, [0.25] * 11)
    segments = harness.segment_durations(start, end, stamps, [3, 6, 9])
    assert sum(segments) == pytest.approx(end - start)


def test_estimators_refuse_repetitions_that_disagree_in_shape():
    with pytest.raises(ValueError):
        harness.noise_floor_wall([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        harness.per_call_minimum([[0.0, 1.0], [0.0, 1.0, 2.0, 3.0]])


def test_per_call_latency_is_the_minimum_across_repetitions():
    first = [0.0, 3.0, 10.0, 11.0]
    second = [5.0, 6.0, 20.0, 24.0]
    assert harness.per_call_minimum([first, second]) == [1.0, 1.0]


def test_no_p99_under_a_thousand_samples():
    samples = [float(i) for i in range(1, 1000)]
    short = harness.latency_percentiles(samples)
    assert short["p99"] is None and short["p50"] == 500.0 and short["max"] == 999.0
    assert harness.tail_latency(short) == ("p90", 900.0)
    full = harness.latency_percentiles(samples + [1000.0])
    assert harness.tail_latency(full) == ("p99", 991.0)  # ten lie at or beyond
    tiny = harness.latency_percentiles(samples[:99])
    assert tiny["p90"] is None and harness.tail_latency(tiny) == ("max", 99.0)


def test_host_slowdown_is_the_calibration_floor_over_its_reference():
    chunks = harness.calibrate(chunks=3, steps=50)
    assert len(chunks) == 3 and all(seconds > 0 for seconds in chunks)
    passes = [[2.0, 1.0, 4.0], [1.0, 3.0, 2.0]]  # floor = 1 + 1 + 2
    assert harness.host_slowdown(passes, reference_s=2.0) == 2.0


def test_repetitions_scale_with_seconds_and_never_drop_under_five():
    spec = {"run_seconds": 10, "workloads": {"w": {"repetitions": 8}}}
    assert run.repetitions(spec, "w", 10) == 8
    assert run.repetitions(spec, "w", 20) == 16
    assert run.repetitions(spec, "w", 1) == run.MIN_REPETITIONS == 5


def test_spread_and_worsening_follow_the_acceptance_rule():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert harness.quartile_spread(values) == pytest.approx(5.5 / 14.5)
    assert harness.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert harness.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)


def test_timing_proxy_records_every_call_in_order():
    class Placer:
        def place(self, tag):
            return tag * 2

    proxy = harness.TimedPlacer(Placer())
    assert [proxy.place(n) for n in (1, 2, 3)] == [2, 4, 6]
    stamps = proxy.stamps()
    assert proxy.results() == [2, 4, 6] and len(stamps) == 6
    assert stamps == sorted(stamps)


# ----------------------------------------------------------------------
# layer map
# ----------------------------------------------------------------------
def test_every_repro_module_lands_in_exactly_one_layer():
    package = harness.SRC_ROOT / "repro"
    seen = set()
    for path in package.rglob("*.py"):
        layer = harness.layer_of(str(path))
        assert layer in harness.LAYERS
        seen.add(layer)
    assert seen == set(harness.LAYERS)  # no layer is a dead name
    for owned in harness.LAYER_MODULES.values():
        assert (package / owned).exists(), owned


def test_everything_else_is_other():
    for filename in (
        "/usr/lib/python3.11/heapq.py",
        "<string>",
        str(harness.BENCH_DIR / "workloads.py"),
        "/site-packages/numpy/_core/fromnumeric.py",
        str(harness.SRC_ROOT / "repro" / "simulation" / "cluster.py"),
        str(harness.SRC_ROOT / "repro" / "topology" / "builder.py"),
    ):
        assert harness.layer_of(filename) == "other"
    assert harness.layer_of("/x/repro/_kernels/pyref.py") == "kernels"
    assert harness.layer_of("/x/repro/topology/ledger.py") == "topology.ledger"


def test_generated_code_is_charged_to_its_caller_and_collisions_add_up():
    def code(filename, name):
        return SimpleNamespace(co_filename=filename, co_name=name)

    def entry(target, calls, self_s, total_s, subcalls=()):
        return SimpleNamespace(
            code=target, callcount=calls, inlinetime=self_s, totaltime=total_s,
            calls=[
                SimpleNamespace(code=sub, callcount=n, inlinetime=t)
                for sub, n, t in subcalls
            ],
        )

    stream = code("/x/repro/simulation/arrivals.py", "arrival_stream")
    search = code("/x/repro/placement/cloudmirror.py", "_child_candidates")
    # two dataclass __init__ methods: same file, line and name
    arrival_init, candidate_init = code("<string>", "__init__"), code("<string>", "__init__")
    view = harness.ProfileView(
        [
            entry(stream, 10, 1.0, 3.0, [(arrival_init, 100, 2.0)]),
            entry(search, 5, 4.0, 4.5, [(candidate_init, 7, 0.5)]),
            entry(arrival_init, 100, 2.0, 2.0),
            entry(candidate_init, 7, 0.5, 0.5),
        ]
    )
    table = view.layer_table()
    assert table["simulation.arrivals"] == {"self_s": 3.0, "calls": 110}
    assert table["placement.cloudmirror"] == {"self_s": 4.5, "calls": 12}
    assert table["other"] == {"self_s": 0.0, "calls": 0}
    assert view.calls("placement/cloudmirror.py", "_child_candidates") == 5
    assert view.cumulative("simulation/arrivals.py", "arrival_stream") == 3.0


def test_spans_nest_repetition_segment_call():
    start, end, stamps = _repetition([1.0] * 4, [0.5] * 5)
    trace = harness.chrome_trace("w", start, end, stamps, [7, 9, 11, 13], [2], "call")
    events = trace["traceEvents"]
    by_id = {event["args"]["id"]: event for event in events}
    assert by_id["rep"]["args"]["parent"] is None
    assert by_id["seg0"]["args"]["parent"] == by_id["seg1"]["args"]["parent"] == "rep"
    assert [by_id[i]["args"]["parent"] for i in (7, 9, 11, 13)] == ["seg0"] * 2 + ["seg1"] * 2
    for event in events:
        assert event["ts"] >= 0 and event["dur"] > 0


# ----------------------------------------------------------------------
# the contract files agree with the code
# ----------------------------------------------------------------------
def test_benchmark_json_names_what_the_code_emits():
    contract = run.load_contract()
    spec = harness.load_spec()
    assert contract["paths"] == ["bench"]
    assert contract["run_seconds"] == spec["run_seconds"]
    assert [w["name"] for w in contract["workloads"]] == list(spec["workloads"])
    assert set(spec["workloads"]) == set(workloads.WORKLOADS)
    fake = {
        "setup_s": 1.0,
        "events_per_s": 2.0,
        "place_p50_us": 3.0,
        "place_tail_us": 4.0,
        "peak_rss_mb": 6.0,
    }
    emitted = run.end_to_end(fake)
    assert list(emitted) == [m["name"] for m in contract["end_to_end"]]
    assert emitted["place_p99_us"] == 4.0  # the highest percentile the sample supports
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    for entry in spec["workloads"].values():
        assert len(entry["pins"]) == 2  # the default and the held-out input


# ----------------------------------------------------------------------
# 1 %-scale smoke of every workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_smoke(name, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)  # spans land in tmp
    workload = workloads.build(name, seed=5, scale=0.01)
    workload.warm_up()
    traced = name == "svc_overload"
    result = child.measure(workload, reps=2, pins=None, trace=traced)
    assert result["correct"], result["checks"]
    assert result["failed"] == 0 and result["attempted"] == 2 * workload.events
    assert result["events_per_s"] > 0 and result["place_p50_us"] > 0
    checks = {check["name"] for check in result["checks"]}
    assert {"decision_digest", "ledger_fingerprint", "harness_overhead"} <= checks
    if name != "paper_grid":
        assert {"no_overcommit", "drain_slots", "drain_bandwidth"} <= checks
        assert 0 <= result["rejected_bw_share"] <= 1
    else:
        assert set(result["kind_shares"]) == {
            "enforce", "failure", "inference", "rejection", "reserved", "temporal"
        }
    if traced:
        emitted = result["layers"]["metrics"]
        contract = run.load_contract()
        assert set(emitted) == {m["name"] for m in contract["per_layer"]}
        assert emitted["trace.coverage"] > 0.9
        spans = json.loads(Path(result["layers"]["spans_file"]).read_text())
        assert Path(result["layers"]["spans_file"]).parent == tmp_path
        assert spans["traceEvents"][0]["name"] == "repetition:svc_overload"


def test_a_wrong_pin_fails_every_arrival():
    workload = workloads.build("svc_overload", seed=5, scale=0.01)
    workload.warm_up()
    pins = {"digest": "0" * 64, "fingerprint": None, "rejected_bw_share": 0.5}
    result = child.measure(workload, reps=2, pins=pins)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2 * workload.events
