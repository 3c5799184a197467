"""Persistent results: fingerprinted trial cache and aggregation.

``repro.results`` makes engine runs persistent, resumable, and
statistically aggregatable:

* :mod:`~repro.results.fingerprint` — a stable SHA-256 identity for every
  fully-bound trial, shared across processes and machines.
* :mod:`~repro.results.codecs` — one canonical-JSON encoding rule for
  every trial kind, plus each kind's version and metrics extractor.
* :mod:`~repro.results.store` — a SQLite-backed
  :class:`~repro.results.store.ResultStore`; ``Engine.run(...,
  store=...)`` skips cache hits and records misses as they complete, so
  interrupted runs resume for free.
* :mod:`~repro.results.aggregate` — seed-replicated mean ± bootstrap
  confidence intervals, fed into the table/chart presenters by
  :mod:`~repro.results.present`.

::

    from repro.engine import Engine, registry
    from repro.results import ResultStore

    store = ResultStore("runs.sqlite")
    scenario = registry.get("fig08").scenario.override(seeds=range(8))
    Engine(n_jobs=4).run(scenario, store=store)   # computes + records
    Engine(n_jobs=4).run(scenario, store=store)   # 100% cache hits
"""

from repro._lazy import lazy_exports

__all__ = [
    "Aggregate",
    "Codec",
    "EXPORT_FORMATS",
    "MetricSample",
    "ResultStore",
    "StoredRow",
    "TELEMETRY_KIND",
    "aggregate",
    "aggregate_chart",
    "aggregate_table",
    "bootstrap_ci",
    "canonical_trial",
    "codec_for",
    "codec_names",
    "codec_version",
    "exports_from_store",
    "record_telemetry",
    "register_codec",
    "samples_from_results",
    "samples_from_store",
    "seed_replicated_summary",
    "store_summary_table",
    "stream_export",
    "telemetry_fingerprint",
    "trial_fingerprint",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.results.aggregate": (
        "Aggregate", "MetricSample", "aggregate", "bootstrap_ci",
        "samples_from_results", "samples_from_store",
    ),
    "repro.results.codecs": (
        "Codec", "codec_for", "codec_names", "codec_version", "register_codec",
    ),
    "repro.results.export": ("EXPORT_FORMATS", "stream_export"),
    "repro.results.fingerprint": ("canonical_trial", "trial_fingerprint"),
    "repro.results.present": (
        "aggregate_chart", "aggregate_table", "seed_replicated_summary",
        "store_summary_table",
    ),
    "repro.results.store": ("ResultStore", "StoredRow"),
    "repro.results.telemetry": (
        "TELEMETRY_KIND", "exports_from_store", "record_telemetry",
        "telemetry_fingerprint",
    ),
})
