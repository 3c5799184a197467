"""Persistent results: fingerprinted trial cache, shards, aggregation.

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
* :mod:`~repro.results.sharding` — deterministic ``i/n`` partitioning of
  a trial matrix across machines, recombined with ``repro results merge``.
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

from repro.results.aggregate import (
    Aggregate,
    MetricSample,
    aggregate,
    bootstrap_ci,
    samples_from_results,
    samples_from_store,
)
from repro.results.codecs import (
    Codec,
    codec_for,
    codec_names,
    codec_version,
    register_codec,
)
from repro.results.export import (
    EXPORT_FORMATS,
    export_rows,
    export_store,
    stream_export,
)
from repro.results.fingerprint import canonical_trial, trial_fingerprint
from repro.results.present import (
    aggregate_chart,
    aggregate_table,
    seed_replicated_summary,
    store_summary_table,
)
from repro.results.sharding import ShardSpec, parse_shard
from repro.results.store import ResultStore, StoredRow
from repro.results.telemetry import (
    TELEMETRY_KIND,
    exports_from_store,
    record_telemetry,
    telemetry_fingerprint,
)

__all__ = [
    "Aggregate",
    "Codec",
    "EXPORT_FORMATS",
    "MetricSample",
    "ResultStore",
    "ShardSpec",
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
    "export_rows",
    "export_store",
    "exports_from_store",
    "parse_shard",
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
