"""Zero-cost-when-disabled observability: spans, counters, telemetry.

``repro.obs`` is the instrumentation layer threaded through the engine,
placers, ledgers, enforcement kernels and results store.  It has three
rules:

1. **Disabled is the default and costs (almost) nothing.**  Hot paths
   guard every counter bump with one module-attribute load plus an
   identity test (``c = core.counters`` / ``if c is not None``), and
   :func:`span` returns a shared no-op context manager when no recorder
   is active.  Golden fixtures and the lockstep suites are bit-identical
   either way — instrumentation only ever *reads* simulation state.
2. **Enablement survives spawn workers.**  :func:`enable` sets the
   ``REPRO_OBS`` environment variable in addition to the module globals;
   spawn-based ``multiprocessing`` workers re-import this package in a
   fresh interpreter and pick the flag up at import time, so a parallel
   ``Engine.run`` traces every worker-side trial.
3. **Everything observable is data.**  Per-trial
   :class:`~repro.obs.trace.TraceRecorder` exports travel back to the
   parent as plain dicts on :class:`~repro.engine.scenario.TrialResult`
   and persist as ``telemetry`` rows in the results store (see
   :mod:`repro.results.telemetry`), where ``repro trace export`` turns
   them into Chrome-trace/Perfetto JSON and ``repro results show`` can
   aggregate phase timings like any other metric.

Public surface::

    with obs.span("place", tenant=tag.name):   # nested, monotonic clock
        ...
    with obs.timed("recover") as timer:        # always measures; span when on
        ...
    timer.seconds

    obs.count("ledger.slot_mutations")         # convenience, non-hot paths
    obs.enable(); obs.disable(); obs.enabled()
    with obs.enabled_scope():                  # tests: enable + restore
        ...
"""

from repro._lazy import lazy_exports

__all__ = [
    "Counters",
    "ProgressReporter",
    "TraceRecorder",
    "count",
    "counter_snapshot",
    "disable",
    "enable",
    "enabled",
    "enabled_scope",
    "span",
    "timed",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.core": (
        "Counters", "count", "counter_snapshot", "disable", "enable", "enabled",
        "enabled_scope", "span", "timed",
    ),
    "repro.obs.progress": ("ProgressReporter",),
    "repro.obs.trace": ("TraceRecorder",),
})
