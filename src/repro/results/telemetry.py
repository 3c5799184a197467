"""The ``telemetry`` result kind: per-trial traces in the results store.

A trial executed with instrumentation on (``obs.enable()`` /
``repro run --telemetry``) carries its :class:`~repro.obs.trace
.TraceRecorder` export on ``TrialResult.telemetry``; the engine persists
it through :func:`record_telemetry` as a row of kind ``"telemetry"``.

Telemetry is *about* a trial, not part of it: its row fingerprint is
derived from (namespaced over) the trial's fingerprint, so it can never
collide with — or cache-hit as — the trial row itself, and the trial's
own identity is untouched whether or not tracing ran.  The codec's
metrics extractor exposes ``phase_*_seconds`` / ``counter_*`` series so
``repro results show`` aggregates wall-clock breakdowns across seeds the
same way it aggregates rejection rates.

``repro trace export`` (see :func:`repro.obs.trace.trace_main`) reads
these rows back via :func:`exports_from_store` and renders Chrome-trace
JSON.
"""

from __future__ import annotations

import hashlib
from itertools import islice
from typing import TYPE_CHECKING, Any

from repro.results.fingerprint import trial_fingerprint

if TYPE_CHECKING:
    from repro.engine.scenario import Trial, TrialResult
    from repro.results.store import ResultStore

__all__ = [
    "TELEMETRY_KIND",
    "exports_from_store",
    "record_telemetry",
    "telemetry_fingerprint",
]

TELEMETRY_KIND = "telemetry"


def telemetry_fingerprint(trial: "Trial") -> str:
    """The store key of ``trial``'s telemetry row.

    Namespacing the trial fingerprint (rather than reusing it) keeps the
    telemetry row distinct from the trial row, and re-hashing keeps the
    key the same shape/length as every other fingerprint in the store.
    """
    base = trial_fingerprint(trial)
    return hashlib.sha256(f"telemetry:{base}".encode()).hexdigest()


def record_telemetry(store: "ResultStore", result: "TrialResult") -> bool:
    """Persist one trial's trace export; returns True if the row is new.

    ``INSERT OR REPLACE`` semantics (via ``record_payload``): telemetry
    is a measurement, so a re-run with tracing on refreshes the row with
    the latest timings instead of keeping stale ones.
    """
    trial = result.trial
    return store.record_payload(
        fingerprint=telemetry_fingerprint(trial),
        kind=TELEMETRY_KIND,
        scenario=trial.scenario,
        payload=result.telemetry,
        variant=trial.variant.name,
        topology=trial.topology.label,
        load=trial.load,
        bmax=trial.bmax,
        seed=trial.seed,
        x=trial.x,
        arrivals=trial.arrivals,
        elapsed=result.elapsed,
    )


def exports_from_store(
    store: "ResultStore",
    *,
    scenario: str | None = None,
    limit: int | None = None,
) -> list[dict[str, Any]]:
    """Decoded trace exports from a store, in deterministic row order."""
    rows = store.iter_rows(scenario=scenario, kind=TELEMETRY_KIND)
    if limit is not None:
        rows = islice(rows, max(0, limit))
    return [row.payload() for row in rows]
