"""Live progress for ``Engine.run``: done/total, hit rate, EMA, ETA.

``ProgressReporter`` is the small protocol object the engine drives:
``begin`` once (after the cache scan, so it knows how much work is
real), ``update`` per completed trial, ``close`` at the end.  Two
renderings share the bookkeeping:

* ``mode="live"`` — a single carriage-return status line on stderr for
  humans watching a terminal.
* ``mode="json"`` — one JSON object per line ("heartbeat" lines) on the
  chosen stream, for a script or CI log that watches the run.

The latency estimate is an exponential moving average (alpha 0.2) of
per-trial wall-clock; ETA divides the remaining trial count by the
parallel width, so a 4-worker run reports a quarter of the serial
projection.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, TextIO

__all__ = ["ProgressReporter"]

EMA_ALPHA = 0.2


class ProgressReporter:
    """Accumulates trial-completion stats and renders them incrementally."""

    def __init__(
        self,
        mode: str = "live",
        *,
        stream: TextIO | None = None,
        min_interval: float = 0.1,
    ) -> None:
        if mode not in ("live", "json", "off"):
            raise ValueError(f"unknown progress mode: {mode!r}")
        self.mode = mode
        self.stream = stream if stream is not None else sys.stderr
        # live mode throttles redraws; json emits every event (consumers
        # want every heartbeat, and trials are never sub-millisecond).
        self.min_interval = min_interval if mode == "live" else 0.0
        self.total = 0
        self.done = 0
        self.cache_hits = 0
        self.errors = 0
        self.n_jobs = 1
        self.ema_seconds: float | None = None
        self._started = 0.0
        self._last_render = 0.0
        self._wrote_live_line = False

    # -- engine-facing protocol -------------------------------------------

    def begin(self, *, total: int, cache_hits: int = 0, n_jobs: int = 1) -> None:
        """Start reporting on ``total`` trials, ``cache_hits`` of them done."""
        self.total = total
        self.cache_hits = cache_hits
        self.done = cache_hits
        self.n_jobs = max(1, n_jobs)
        self._started = time.perf_counter()
        if self.mode == "json":
            self._emit_json("begin")
        elif self.mode == "live":
            self._render_live(force=True)

    def update(self, result: Any = None, *, seconds: float | None = None) -> None:
        """Record one completed trial (a TrialResult, or raw seconds)."""
        self.done += 1
        if seconds is None and result is not None:
            seconds = getattr(result, "elapsed", None)
            if getattr(result, "cached", False):
                seconds = None
        if seconds is not None:
            if self.ema_seconds is None:
                self.ema_seconds = seconds
            else:
                self.ema_seconds += EMA_ALPHA * (seconds - self.ema_seconds)
        if self.mode == "json":
            self._emit_json("trial")
        elif self.mode == "live":
            self._render_live()

    def close(self) -> None:
        if self.mode == "json":
            self._emit_json("end")
        elif self.mode == "live":
            self._render_live(force=True)
            if self._wrote_live_line:
                print(file=self.stream, flush=True)

    # -- derived quantities ------------------------------------------------

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    @property
    def elapsed_seconds(self) -> float:
        return time.perf_counter() - self._started

    @property
    def events_per_sec(self) -> float:
        """Completed work per wall-clock second since ``begin``."""
        elapsed = self.elapsed_seconds
        return self.done / elapsed if elapsed > 0 else 0.0

    @property
    def eta_seconds(self) -> float | None:
        if self.ema_seconds is None:
            return None
        remaining = max(0, self.total - self.done)
        return remaining * self.ema_seconds / self.n_jobs

    def snapshot(self, event: str = "trial") -> dict[str, Any]:
        """The machine-readable heartbeat payload (one JSON line each)."""
        ema = self.ema_seconds
        eta = self.eta_seconds
        return {
            "event": event,
            "done": self.done,
            "total": self.total,
            "cache_hits": self.cache_hits,
            "hit_rate": round(self.hit_rate, 4),
            "ema_seconds": round(ema, 6) if ema is not None else None,
            "eta_seconds": round(eta, 3) if eta is not None else None,
            "events_per_sec": round(self.events_per_sec, 1),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "n_jobs": self.n_jobs,
        }

    # -- renderings --------------------------------------------------------

    def _emit_json(self, event: str) -> None:
        print(json.dumps(self.snapshot(event)), file=self.stream, flush=True)

    def _render_live(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self._last_render < self.min_interval:
            return
        self._last_render = now
        eta = self.eta_seconds
        eta_text = _format_seconds(eta) if eta is not None else "--"
        ema = self.ema_seconds
        ema_text = f"{ema * 1e3:.0f}ms" if ema is not None else "--"
        line = (
            f"\r[{self.done}/{self.total}] "
            f"hits {self.cache_hits} ({self.hit_rate:.0%})  "
            f"trial {ema_text}  eta {eta_text}"
        )
        print(f"{line:<72}", end="", file=self.stream, flush=True)
        self._wrote_live_line = True


def _format_seconds(seconds: float) -> str:
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"
