"""The scenario execution engine: grid expansion + (parallel) dispatch.

``Engine(n_jobs=1)`` runs a scenario's trial matrix in-process;
``Engine(n_jobs=4)`` fans the trials out over a spawn-based process
pool.  Trials are fully bound before dispatch (every trial carries its
own seed from the scenario's seed grid), so the result list is
identical — bit-for-bit on every metric — whichever mode runs it; only
wall-clock fields differ.  Results always come back in grid order
regardless of worker scheduling.  A worker that dies mid-trial ends the
run with an :class:`~repro.errors.EngineError` naming how many trials
finished and how many were lost.

``run(..., store=...)`` makes a run persistent and resumable: trials
whose fingerprint is already in the store are served from it without
executing, and every miss is recorded the moment it completes, so an
interrupted sweep picks up where it left off.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Callable

from repro.engine.runners import SERIAL_ONLY_KINDS, execute_trial
from repro.engine.scenario import Scenario, ScenarioResult, Trial, TrialResult
from repro.errors import EngineError

__all__ = ["Engine", "MAX_AUTO_JOBS", "default_jobs"]

# Cap for the automatic --jobs default: spawn startup (a fresh
# interpreter importing numpy + repro per worker) outgrows the win
# beyond this for the grid sizes the scenarios ship with.  Explicit
# --jobs N overrides the cap.
MAX_AUTO_JOBS = 8


def default_jobs(kind: str | None = None) -> int:
    """Worker count used when the caller doesn't pass ``--jobs``.

    Resolves to ``os.cpu_count()`` capped at :data:`MAX_AUTO_JOBS`.
    Wall-clock kinds (:data:`SERIAL_ONLY_KINDS`, e.g. ``runtime``) pin
    to 1 — their payload is a timing that CPU contention would corrupt.
    """
    if kind is not None and kind in SERIAL_ONLY_KINDS:
        return 1
    return max(1, min(os.cpu_count() or 1, MAX_AUTO_JOBS))


class Engine:
    """Expands scenarios into trial matrices and executes them.

    Parameters
    ----------
    n_jobs:
        Worker process count.  ``1`` (default) runs serially in-process;
        ``0`` means one worker per CPU.  Workers are started with the
        ``spawn`` method so the engine behaves identically on every
        platform and never inherits dirty interpreter state.
    """

    def __init__(self, n_jobs: int = 1) -> None:
        if n_jobs < 0:
            raise EngineError(f"n_jobs must be >= 0, got {n_jobs}")
        if n_jobs == 0:
            n_jobs = multiprocessing.cpu_count()
        self.n_jobs = n_jobs

    def run(
        self,
        scenario: Scenario,
        *,
        store: Any | None = None,
        progress: Any | None = None,
    ) -> ScenarioResult:
        """Execute every trial of ``scenario``; results in grid order.

        ``store`` is a :class:`~repro.results.store.ResultStore`: hits
        skip execution, misses are recorded as they complete.

        ``progress`` is a :class:`~repro.obs.progress.ProgressReporter`
        (or anything with its ``begin``/``update``/``close`` protocol):
        ``begin`` fires once after the cache scan, ``update`` per
        executed trial as it completes (worker order, not grid order),
        ``close`` when the run ends — even on error, so a live status
        line never swallows the traceback that follows it.

        Results executed with instrumentation on carry a telemetry
        export (see ``execute_trial``); when a ``store`` is present each
        export is persisted as a ``telemetry`` row next to the trial row
        the moment it completes.

        Kinds in :data:`SERIAL_ONLY_KINDS` (wall-clock measurements)
        always run serially — concurrent workers would contend for CPU
        and corrupt the timings that are their payload.
        """
        trials = scenario.expand()

        started = time.perf_counter()
        by_index: dict[int, TrialResult] = {}
        pending = trials
        if store is not None:
            pending = []
            for trial in trials:
                hit = store.cached_result(trial)
                if hit is not None:
                    by_index[trial.index] = hit
                else:
                    pending.append(trial)
        record = self._make_recorder(store)

        # Effective worker count — what actually ran, reported as
        # ScenarioResult.n_jobs: serial-only kinds and sub-2-trial
        # workloads never use a pool, and a pool never outnumbers the
        # trials left to execute after cache hits.
        if scenario.kind in SERIAL_ONLY_KINDS or len(pending) < 2:
            n_jobs = 1
        else:
            n_jobs = min(self.n_jobs, len(pending))
        if progress is not None:
            progress.begin(
                total=len(trials),
                cache_hits=len(trials) - len(pending),
                n_jobs=n_jobs,
            )
        try:
            if n_jobs == 1:
                for trial in pending:
                    result = execute_trial(trial)
                    if record is not None:
                        record(result)
                    by_index[trial.index] = result
                    if progress is not None:
                        progress.update(result)
            else:
                self._run_parallel(pending, n_jobs, by_index, record, progress)
        finally:
            if progress is not None:
                progress.close()
        return ScenarioResult(
            scenario=scenario,
            results=[by_index[trial.index] for trial in trials],
            n_jobs=n_jobs,
            elapsed=time.perf_counter() - started,
            cache_hits=len(trials) - len(pending),
        )

    @staticmethod
    def _make_recorder(store: Any | None) -> Callable[[TrialResult], Any] | None:
        """The per-result persistence hook: trial row + telemetry row.

        Telemetry persistence piggybacks on the existing record path so
        an interrupted instrumented run keeps its traces for everything
        that completed, exactly like the trial rows themselves.
        """
        if store is None:
            return None

        def record(result: TrialResult) -> None:
            store.record(result)
            if result.telemetry is not None:
                # Lazy import: repro.results depends on repro.engine, so
                # the reverse edge must not exist at module-import time.
                from repro.results.telemetry import record_telemetry

                record_telemetry(store, result)

        return record

    def _run_parallel(
        self,
        trials: list[Trial],
        workers: int,
        by_index: dict[int, TrialResult],
        record: Callable[[TrialResult], Any] | None,
        progress: Any | None = None,
    ) -> None:
        # Imported here: a serial run (and the benchmark's child) never
        # pays the ~0.6 MiB the executor machinery costs to load.
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        context = multiprocessing.get_context("spawn")
        # One future per trial: runtimes vary wildly across a grid (a
        # 90% load point costs far more than a 10% one), so fine-grained
        # dispatch beats pre-chunking.  as_completed lets each result
        # reach the store the moment its worker finishes — an
        # interrupted parallel run keeps everything completed so far —
        # and grid order is restored from the trial indices afterwards.
        # A worker that dies (OOM kill, segfault) breaks the pool: every
        # unfinished future then raises BrokenProcessPool instead of
        # waiting forever for a result nobody will send.
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        lost = 0
        try:
            futures = [pool.submit(execute_trial, trial) for trial in trials]
            for future in as_completed(futures):
                try:
                    result = future.result()
                except BrokenProcessPool:
                    lost += 1
                    continue
                if record is not None:
                    record(result)
                by_index[result.trial.index] = result
                if progress is not None:
                    progress.update(result)
        finally:
            # On an error, do not run what is still queued.
            pool.shutdown(cancel_futures=True)
        if lost:
            kept = " (and are in the store)" if record is not None else ""
            raise EngineError(
                f"a worker process died mid-trial: {len(trials) - lost} of "
                f"{len(trials)} trials finished{kept}, {lost} lost"
            )
