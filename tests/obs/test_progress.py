"""ProgressReporter: EMA/ETA math, JSON heartbeats, live rendering."""

from __future__ import annotations

import io
import json
from types import SimpleNamespace

import pytest

from repro.obs.progress import EMA_ALPHA, ProgressReporter, _format_seconds


def _trial(elapsed: float, cached: bool = False):
    return SimpleNamespace(elapsed=elapsed, cached=cached)


class TestBookkeeping:
    def test_begin_counts_cache_hits_as_done(self):
        p = ProgressReporter("off")
        p.begin(total=10, cache_hits=4, n_jobs=2)
        assert p.done == 4 and p.total == 10
        assert p.hit_rate == pytest.approx(0.4)

    def test_ema_tracks_trial_latency(self):
        p = ProgressReporter("off")
        p.begin(total=3)
        p.update(_trial(1.0))
        assert p.ema_seconds == pytest.approx(1.0)  # seeded by first sample
        p.update(_trial(2.0))
        assert p.ema_seconds == pytest.approx(1.0 + EMA_ALPHA * 1.0)

    def test_cached_results_do_not_feed_the_ema(self):
        p = ProgressReporter("off")
        p.begin(total=3)
        p.update(_trial(5.0, cached=True))
        assert p.done == 1
        assert p.ema_seconds is None

    def test_eta_divides_by_parallel_width(self):
        p = ProgressReporter("off")
        p.begin(total=9, n_jobs=4)
        p.update(seconds=2.0)
        # 8 remaining x 2s / 4 workers
        assert p.eta_seconds == pytest.approx(4.0)

    def test_eta_unknown_before_any_sample(self):
        p = ProgressReporter("off")
        p.begin(total=5)
        assert p.eta_seconds is None

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ProgressReporter("fancy")


class TestJsonHeartbeats:
    def test_one_json_line_per_event(self):
        stream = io.StringIO()
        p = ProgressReporter("json", stream=stream)
        p.begin(total=2, cache_hits=1, n_jobs=1)
        p.update(seconds=0.5)
        p.close()
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [line["event"] for line in lines] == ["begin", "trial", "end"]
        assert lines[0]["done"] == 1  # cache hits pre-counted
        assert lines[1]["done"] == 2
        assert lines[1]["ema_seconds"] == pytest.approx(0.5)
        assert lines[1]["eta_seconds"] == pytest.approx(0.0)
        for line in lines:
            assert {"done", "total", "cache_hits", "hit_rate",
                    "elapsed_seconds", "n_jobs"} <= set(line)

    def test_json_mode_never_throttles(self):
        stream = io.StringIO()
        p = ProgressReporter("json", stream=stream)
        p.begin(total=50)
        for _ in range(50):
            p.update(seconds=0.0001)
        p.close()
        assert len(stream.getvalue().splitlines()) == 52


class TestLiveRendering:
    def test_live_line_uses_carriage_return_and_final_newline(self):
        stream = io.StringIO()
        p = ProgressReporter("live", stream=stream, min_interval=0.0)
        p.begin(total=2)
        p.update(seconds=0.01)
        p.update(seconds=0.01)
        p.close()
        text = stream.getvalue()
        assert text.count("\r") >= 3
        assert text.endswith("\n")
        assert "[2/2]" in text

    def test_off_mode_writes_nothing(self):
        stream = io.StringIO()
        p = ProgressReporter("off", stream=stream)
        p.begin(total=2)
        p.update(seconds=0.1)
        p.close()
        assert stream.getvalue() == ""


def test_format_seconds_buckets():
    assert _format_seconds(57.4) == "57s"
    assert _format_seconds(123) == "2m03s"
    assert _format_seconds(3900) == "1h05m"
