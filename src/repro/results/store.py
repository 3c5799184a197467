"""SQLite-backed persistent store for trial results.

One store is one SQLite file.  The ``results`` table is both the index
(scenario / variant / grid-point columns for querying) and the payload
backend (the codec's canonical JSON text).  Writes are single-row
transactions with a busy timeout, so concurrent writers — two runs
pointed at one file, or an engine run racing a ``repro results gc`` —
serialize safely; a crash mid-run loses at most the in-flight row.

The engine talks to the store through two methods only:
:meth:`ResultStore.cached_result` (lookup before executing a trial) and
:meth:`ResultStore.record` (persist a miss the moment it completes).
Because recording is incremental, an interrupted run resumes where it
left off: completed trials are already on disk and hit the cache.

Connections are opened lazily and re-opened when the process id changes,
so a store object accidentally captured by a spawn/fork worker never
shares a SQLite handle with its parent.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.engine.scenario import Trial, TrialResult
from repro.errors import ResultsError
from repro.obs import core as _obs
from repro.results.codecs import codec_for, codec_version
from repro.results.fingerprint import trial_fingerprint

__all__ = ["ResultStore", "StoredRow"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    fingerprint   TEXT PRIMARY KEY,
    kind          TEXT NOT NULL,
    codec_version INTEGER NOT NULL,
    scenario      TEXT NOT NULL,
    variant       TEXT NOT NULL,
    topology      TEXT NOT NULL,
    load          REAL NOT NULL,
    bmax          REAL NOT NULL,
    seed          INTEGER NOT NULL,
    x             TEXT NOT NULL,
    arrivals      INTEGER NOT NULL,
    elapsed       REAL NOT NULL,
    created       REAL NOT NULL,
    payload       TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS results_scenario ON results (scenario, kind);
"""

_COLUMNS = (
    "fingerprint, kind, codec_version, scenario, variant, topology, "
    "load, bmax, seed, x, arrivals, elapsed, created, payload"
)


@dataclass(frozen=True)
class StoredRow:
    """One persisted trial result, payload still in codec JSON form."""

    fingerprint: str
    kind: str
    codec_version: int
    scenario: str
    variant: str
    topology: str
    load: float
    bmax: float
    seed: int
    x: Any
    arrivals: int
    elapsed: float
    created: float
    payload_json: str

    def payload(self) -> Any:
        """The decoded payload object (requires the kind's codec)."""
        return _decode(self.kind, self.fingerprint, self.payload_json)[0]

    def metrics(self) -> dict[str, float]:
        return _decode(self.kind, self.fingerprint, self.payload_json)[1]


def _decode(kind: str, fingerprint: str, text: str) -> tuple[Any, dict[str, float]]:
    """One stored payload and its metrics, or a ``ResultsError`` naming gc.

    Every read of a stored payload comes through here, so a row that
    cannot be read — its kind is gone, its text is not JSON, its fields
    are not the payload type's, or its kind's ``metrics`` extractor
    rejects it — fails the same clean way wherever it is read, and
    :meth:`ResultStore.gc` reaps exactly the rows that fail here.
    """
    try:
        codec = codec_for(kind)
    except ResultsError:
        # codec_for's message is advice for *writing* a new kind; a row
        # already on disk whose kind is gone can only be reaped.
        raise ResultsError(
            f"stored row {fingerprint[:12]} has kind {kind!r}, which this "
            "version no longer reads; `repro results gc <store>` removes "
            "such rows"
        ) from None
    try:
        payload = codec.decode(text)
        return payload, codec.metrics(payload)
    except (ValueError, LookupError, TypeError, AttributeError) as error:
        raise ResultsError(
            f"stored row {fingerprint[:12]} (kind {kind!r}) does not decode "
            f"({type(error).__name__}: {error}); `repro results gc <store>` "
            "removes such rows"
        ) from None


def _decodes(kind: str, fingerprint: str, text: str) -> bool:
    try:
        _decode(kind, fingerprint, text)
    except ResultsError:
        return False
    return True


def _insert(
    connection: sqlite3.Connection, fingerprint: str, kind: str, scenario: str,
    variant: str, topology: str, load: float, bmax: float, seed: int, x: Any,
    arrivals: int, elapsed: float, payload: Any,
) -> None:
    """``INSERT OR REPLACE`` one row, its payload encoded by its kind's
    codec and ``created`` set to now."""
    codec = codec_for(kind)
    connection.execute(
        f"INSERT OR REPLACE INTO results ({_COLUMNS}) "
        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        (
            fingerprint, kind, codec.version, scenario, variant, topology, load,
            bmax, seed, json.dumps(x), arrivals, elapsed, time.time(),
            codec.encode(payload),
        ),
    )


class ResultStore:
    """Persistent, fingerprint-keyed trial results in one SQLite file."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._connection: sqlite3.Connection | None = None
        self._pid = -1

    # -- connection management -----------------------------------------
    def _connect(self) -> sqlite3.Connection:
        if self._connection is None or self._pid != os.getpid():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            try:
                connection = sqlite3.connect(self.path, timeout=30.0)
                # connect() is lazy and succeeds on any path; the schema
                # script is the first real read, so a corrupt or
                # non-SQLite file surfaces here and must map to the
                # package error for clean CLI reporting.
                connection.executescript(_SCHEMA)
                connection.commit()
            except sqlite3.Error as error:
                raise ResultsError(f"cannot open store {self.path}: {error}")
            self._connection = connection
            self._pid = os.getpid()
        return self._connection

    def close(self) -> None:
        if self._connection is not None and self._pid == os.getpid():
            self._connection.close()
        self._connection = None
        self._pid = -1

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- the engine-facing protocol ------------------------------------
    def cached_result(self, trial: Trial) -> TrialResult | None:
        """The stored result for ``trial``, or ``None`` on a miss.

        A hit re-binds the *live* trial object (so grid index and
        scenario name reflect the caller's matrix, not the writer's) and
        marks the result ``cached=True``; ``elapsed`` is the original
        execution's wall time.
        """
        fingerprint = trial_fingerprint(trial)
        row = (
            self._connect()
            .execute(
                "SELECT payload, elapsed FROM results WHERE fingerprint = ?",
                (fingerprint,),
            )
            .fetchone()
        )
        c = _obs.counters
        if row is None:
            if c is not None:
                c.bump("store.cache_misses")
            return None
        if c is not None:
            c.bump("store.cache_hits")
        payload = _decode(trial.kind, fingerprint, row[0])[0]
        return TrialResult(trial, payload, row[1], cached=True)

    def record(self, result: TrialResult) -> str:
        """Persist one executed trial; returns its fingerprint.

        ``INSERT OR REPLACE`` in a single transaction: recording the
        same fingerprint twice (two runs racing, a re-run after ``gc``) is
        idempotent because equal fingerprints imply equal payload bytes
        for deterministic kinds.  Measurement kinds (``runtime``, whose
        payload *is* a wall-clock reading) re-measure on every
        execution; there the replace keeps the latest measurement.
        """
        trial = result.trial
        fingerprint = trial_fingerprint(trial)
        connection = self._connect()
        with connection:
            _insert(
                connection, fingerprint, trial.kind, trial.scenario,
                trial.variant.name, trial.topology.label, trial.load, trial.bmax,
                trial.seed, trial.x, trial.arrivals, result.elapsed, result.payload,
            )
        return fingerprint

    def record_payload(
        self,
        *,
        fingerprint: str,
        kind: str,
        scenario: str,
        payload: Any,
        variant: str = "-",
        topology: str = "-",
        load: float = 0.0,
        bmax: float = 0.0,
        seed: int = 0,
        x: Any = None,
        arrivals: int = 0,
        elapsed: float = 0.0,
    ) -> bool:
        """Persist one non-trial row (a telemetry export); True if new.

        For rows whose identity is derived by the caller rather than
        from a trial fingerprint.  Re-recording an existing fingerprint
        replaces the row, refreshes ``created`` and counts as not-new.
        """
        codec_for(kind)  # an unknown kind fails before the store is opened
        connection = self._connect()
        with connection:
            existed = connection.execute(
                "SELECT 1 FROM results WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
            _insert(
                connection, fingerprint, kind, scenario, variant, topology, load,
                bmax, seed, x, arrivals, elapsed, payload,
            )
        return existed is None

    # -- query layer ----------------------------------------------------
    def __len__(self) -> int:
        return self._connect().execute("SELECT COUNT(*) FROM results").fetchone()[0]

    @staticmethod
    def _filter_sql(
        scenario: str | None, kind: str | None
    ) -> tuple[str, list[Any]]:
        clauses, binds = [], []
        if scenario is not None:
            clauses.append("scenario = ?")
            binds.append(scenario)
        if kind is not None:
            clauses.append("kind = ?")
            binds.append(kind)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        return where, binds

    def rows(
        self, *, scenario: str | None = None, kind: str | None = None
    ) -> list[StoredRow]:
        """Stored rows, optionally filtered, in deterministic order."""
        return list(self.iter_rows(scenario=scenario, kind=kind))

    def iter_rows(
        self, *, scenario: str | None = None, kind: str | None = None
    ) -> Iterator[StoredRow]:
        """Stream stored rows lazily, same filter and order as :meth:`rows`.

        SQLite cursors fetch incrementally, so consumers that process
        one row at a time (the streaming exporter) hold O(1) rows in
        memory regardless of store size.
        """
        where, binds = self._filter_sql(scenario, kind)
        query = (
            f"SELECT {_COLUMNS} FROM results{where}"
            " ORDER BY scenario, topology, load, bmax, x, variant, seed"
        )
        for row in self._connect().execute(query, binds):
            values = list(row)
            values[9] = json.loads(values[9])  # x column back to Python
            yield StoredRow(*values)

    def count(
        self, *, scenario: str | None = None, kind: str | None = None
    ) -> int:
        """Row count under the same filter as :meth:`rows`/:meth:`iter_rows`."""
        where, binds = self._filter_sql(scenario, kind)
        return (
            self._connect()
            .execute(f"SELECT COUNT(*) FROM results{where}", binds)
            .fetchone()[0]
        )

    def summary(self) -> list[tuple[str, str, int, float]]:
        """Per-scenario rollup: (scenario, kind, rows, total elapsed s)."""
        return [
            tuple(row)
            for row in self._connect().execute(
                "SELECT scenario, kind, COUNT(*), SUM(elapsed) FROM results "
                "GROUP BY scenario, kind ORDER BY scenario, kind"
            )
        ]

    # -- maintenance -----------------------------------------------------
    def gc(self) -> int:
        """Delete rows no current codec can decode; returns rows removed.

        A row is stale when its kind has no registered codec, when its
        ``codec_version`` differs from the registered one (the
        fingerprint of such a trial has changed, so the row can never
        hit again), or when its payload does not decode (a corrupt row).
        """
        connection = self._connect()
        stale = [
            (fingerprint,)
            for fingerprint, kind, version, text in connection.execute(
                "SELECT fingerprint, kind, codec_version, payload FROM results"
            )
            if codec_version(kind) != version
            or not _decodes(kind, fingerprint, text)
        ]
        with connection:
            connection.executemany(
                "DELETE FROM results WHERE fingerprint = ?", stale
            )
        return len(stale)

    def vacuum(self) -> int:
        """Rebuild the database file, returning the bytes reclaimed.

        ``gc`` only marks pages free inside the file; ``VACUUM`` gives
        the space back to the filesystem.  Must run outside any open
        transaction, hence the explicit commit first.
        """
        connection = self._connect()
        connection.commit()
        before = self.path.stat().st_size
        connection.execute("VACUUM")
        connection.commit()
        return max(0, before - self.path.stat().st_size)
