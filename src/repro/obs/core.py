"""The instrumentation core: module-level counters and span machinery.

This module imports nothing from ``repro`` so every layer — topology,
placement, enforcement, results — can instrument itself without import
cycles.  The two attachment points are plain module globals:

``counters``
    ``None`` while disabled (the default), a :class:`Counters` dict once
    :func:`enable` runs.  Hot paths inline the guard::

        from repro.obs import core as _obs
        ...
        c = _obs.counters
        if c is not None:
            c.bump("ledger.slot_mutations")

    so the disabled path is one module-attribute load and one identity
    test per instrumented operation — no function call, no allocation.

``recorder``
    The active :class:`~repro.obs.trace.TraceRecorder` (or ``None``).
    :func:`span` hands finished spans to it; installing/removing a
    recorder is the recorder's own context-manager protocol.

Enablement is process-wide and mirrored into the ``REPRO_OBS``
environment variable so spawn-based multiprocessing workers — fresh
interpreters that re-import this module — inherit it (the import-time
check at the bottom of this file).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "Counters",
    "count",
    "counter_snapshot",
    "disable",
    "enable",
    "enabled",
    "enabled_scope",
    "span",
    "timed",
]

ENV_FLAG = "REPRO_OBS"

_perf_counter = time.perf_counter


class Counters(dict):
    """Named monotonically-increasing event counters (a plain dict)."""

    __slots__ = ()

    def bump(self, name: str, n: int = 1) -> None:
        self[name] = self.get(name, 0) + n


# The module-level attachment points (see module docstring).
counters: Counters | None = None
recorder: Any | None = None


def enabled() -> bool:
    """Whether instrumentation is collecting (counters installed)."""
    return counters is not None


def enable() -> None:
    """Turn counters on and mark the environment for spawn workers.

    Idempotent; existing counter values are preserved across repeated
    calls so a long-lived process accumulates one series.
    """
    global counters
    if counters is None:
        counters = Counters()
    os.environ[ENV_FLAG] = "1"


def disable() -> None:
    """Drop counters, detach any recorder, clear the environment flag."""
    global counters, recorder
    counters = None
    recorder = None
    os.environ.pop(ENV_FLAG, None)


@contextmanager
def enabled_scope() -> Iterator[Counters]:
    """Enable instrumentation for a block, restoring prior state after.

    The tests' way to force counters/tracing on without leaking the
    ``REPRO_OBS`` flag (or a half-installed recorder) into later tests.
    """
    global counters, recorder
    prev_counters = counters
    prev_recorder = recorder
    prev_env = os.environ.get(ENV_FLAG)
    enable()
    try:
        assert counters is not None
        yield counters
    finally:
        counters = prev_counters
        recorder = prev_recorder
        if prev_env is None:
            os.environ.pop(ENV_FLAG, None)
        else:
            os.environ[ENV_FLAG] = prev_env


def count(name: str, n: int = 1) -> None:
    """Bump a named counter (convenience for non-hot call sites)."""
    c = counters
    if c is not None:
        c.bump(name, n)


def counter_snapshot() -> dict[str, int]:
    """A plain-dict copy of the current counter values (empty if off)."""
    return dict(counters) if counters is not None else {}


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


class _NullSpan:
    """The shared do-nothing span handed out while no recorder is active."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: records (name, start, duration, args) on exit.

    Durations come from ``time.perf_counter()`` — monotonic, so NTP
    slews or DST shifts during a trial can never produce negative or
    inflated spans.  Nesting needs no explicit stack: spans are
    lexically scoped, so their (start, duration) intervals nest and the
    Chrome-trace viewer reconstructs the hierarchy from the timestamps.
    """

    __slots__ = ("name", "args", "_start")

    def __init__(self, name: str, args: dict[str, Any] | None) -> None:
        self.name = name
        self.args = args

    def __enter__(self) -> "_Span":
        self._start = _perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        rec = recorder
        if rec is not None:
            stop = _perf_counter()
            rec.record(self.name, self._start, stop - self._start, self.args)
        return False


def span(name: str, **args: Any) -> Any:
    """A nestable monotonic-clock span; no-op unless a recorder is active.

    ``args`` become the Chrome-trace event's ``args`` payload (keep them
    small and JSON-able: tenant names, counts — not objects).
    """
    if recorder is None:
        return _NULL_SPAN
    return _Span(name, args or None)


class Timer:
    """An always-on timing block that doubles as a span when tracing.

    This is the replacement for the hand-rolled ``started =
    perf_counter() ... elapsed = perf_counter() - started`` pairs that
    used to be scattered through the runners and the failure harness:
    the measured ``seconds`` is *always* produced
    (several payloads are wall-clock measurements), and when a recorder
    is active the same reading is recorded as a span for free — one
    clock read pair either way.
    """

    __slots__ = ("name", "seconds", "_start")

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0

    def __enter__(self) -> "Timer":
        self._start = _perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.seconds = _perf_counter() - self._start
        rec = recorder
        if rec is not None:
            rec.record(self.name, self._start, self.seconds, None)
        return False


def timed(name: str) -> Timer:
    """An always-measuring :class:`Timer` (span only while tracing)."""
    return Timer(name)


# Spawn workers re-import this module in a fresh interpreter: inherit
# the parent's enablement from the environment at import time.
if os.environ.get(ENV_FLAG) == "1":
    counters = Counters()
