"""ResultStore: cache hit/skip, resume, gc, persistence.

The acceptance properties of the results subsystem live here:

* running the same scenario twice against a store executes zero trials
  the second time;
* an interrupted run resumes without recomputing completed trials;
* a serial store and an ``n_jobs > 1`` store are byte-identical.
"""

from __future__ import annotations

import pytest

from repro.engine import Engine, Scenario, Variant, register_runner
from repro.engine.runners import RUNNERS
from repro.errors import ResultsError
from repro.results import ResultStore, register_codec
from repro.results.codecs import _CODECS

TINY = Scenario(
    name="tiny",
    title="tiny rejection scenario",
    kind="rejection",
    variants=(Variant("cm"), Variant("ovoc")),
    loads=(0.4,),
    bmaxes=(800.0,),
    seeds=(0, 1),
    arrivals=30,
    pods=1,
)


def signature(store: ResultStore) -> list[tuple[str, str]]:
    """Byte-level store identity: (fingerprint, payload JSON) rows."""
    return [(row.fingerprint, row.payload_json) for row in store.rows()]


@pytest.fixture
def store(tmp_path) -> ResultStore:
    with ResultStore(tmp_path / "results.sqlite") as opened:
        yield opened


class TestCacheHitSkip:
    def test_second_run_executes_zero_trials(self, store):
        first = Engine().run(TINY, store=store)
        assert first.cache_hits == 0 and first.executed == 4
        assert len(store) == 4
        second = Engine().run(TINY, store=store)
        assert second.cache_hits == 4 and second.executed == 0
        assert all(r.cached for r in second)
        assert not any(r.cached for r in first)
        # Bit-identical on every metric (the repo's identity notion).
        assert [r.fingerprint() for r in first] == [r.fingerprint() for r in second]

    def test_partial_overlap_executes_only_new_points(self, store):
        Engine().run(TINY, store=store)
        wider = TINY.override(seeds=(0, 1, 2))
        result = Engine().run(wider, store=store)
        assert result.cache_hits == 4 and result.executed == 2
        assert len(store) == 6

    def test_cross_scenario_cache_sharing(self, store):
        # The same grid point under a different scenario name is the
        # same computation: fingerprints exclude the scenario label.
        Engine().run(TINY, store=store)
        import dataclasses

        renamed = dataclasses.replace(TINY, name="other")
        result = Engine().run(renamed, store=store)
        assert result.cache_hits == 4

    def test_store_persists_across_instances(self, tmp_path):
        path = tmp_path / "persist.sqlite"
        with ResultStore(path) as store:
            Engine().run(TINY, store=store)
        with ResultStore(path) as reopened:
            result = Engine().run(TINY, store=reopened)
        assert result.cache_hits == 4

    def test_without_store_nothing_is_cached(self):
        result = Engine().run(TINY)
        assert result.cache_hits == 0
        assert not any(r.cached for r in result)


class TestResumeAfterInterrupt:
    @pytest.fixture
    def flaky_kind(self):
        """A registered kind whose runner can be told to die mid-grid."""
        kind = "flaky-store-test"
        explode_at: set[int] = set()

        def runner(trial):
            if trial.seed in explode_at:
                raise RuntimeError(f"interrupted at seed {trial.seed}")
            return {"value": trial.seed * 10.0}

        register_runner(kind, runner)
        register_codec(kind, version=1, metrics=lambda p: {"value": p["value"]})
        try:
            yield kind, explode_at
        finally:
            RUNNERS.pop(kind, None)
            _CODECS.pop(kind, None)

    def test_interrupted_run_resumes_where_it_left_off(self, store, flaky_kind):
        kind, explode_at = flaky_kind
        scenario = Scenario(
            name="resume", title="r", kind=kind, seeds=(0, 1, 2, 3), pods=1
        )
        explode_at.add(2)
        with pytest.raises(RuntimeError, match="interrupted at seed 2"):
            Engine().run(scenario, store=store)
        # Seeds 0 and 1 completed before the crash and are on disk.
        assert len(store) == 2
        explode_at.clear()
        resumed = Engine().run(scenario, store=store)
        assert resumed.cache_hits == 2 and resumed.executed == 2
        assert [r.payload["value"] for r in resumed] == [0.0, 10.0, 20.0, 30.0]


class TestSerialParallelIdentity:
    def test_store_contents_identical(self, tmp_path):
        serial = ResultStore(tmp_path / "serial.sqlite")
        parallel = ResultStore(tmp_path / "parallel.sqlite")
        Engine(n_jobs=1).run(TINY, store=serial)
        result = Engine(n_jobs=2).run(TINY, store=parallel)
        assert result.n_jobs == 2
        assert signature(serial) == signature(parallel)

    def test_parallel_run_hits_serial_cache(self, store):
        Engine(n_jobs=1).run(TINY, store=store)
        result = Engine(n_jobs=2).run(TINY, store=store)
        # All trials cached: nothing left to parallelize.
        assert result.cache_hits == 4 and result.n_jobs == 1


class TestGc:
    @pytest.fixture
    def versioned_kind(self):
        kind = "gc-test"
        register_runner(kind, lambda trial: {"value": 1.0})
        register_codec(kind, version=1)
        try:
            yield kind
        finally:
            RUNNERS.pop(kind, None)
            _CODECS.pop(kind, None)

    def test_gc_removes_stale_codec_versions(self, store, versioned_kind):
        scenario = Scenario(
            name="gc", title="g", kind=versioned_kind, seeds=(0, 1), pods=1
        )
        Engine().run(scenario, store=store)
        assert store.gc() == 0  # everything current
        register_codec(versioned_kind, version=2)
        # The v1 rows can never hit again (fingerprints moved with the
        # version), so a re-run recomputes and gc reclaims the old rows.
        rerun = Engine().run(scenario, store=store)
        assert rerun.cache_hits == 0
        assert store.gc() == 2
        assert len(store) == 2

    def test_gc_removes_unknown_kinds(self, store, versioned_kind):
        scenario = Scenario(
            name="gc", title="g", kind=versioned_kind, seeds=(0,), pods=1
        )
        Engine().run(scenario, store=store)
        _CODECS.pop(versioned_kind)
        assert store.gc() == 1
        assert len(store) == 0

    def test_vacuum_returns_collected_pages(self, store, versioned_kind):
        for run in range(64):
            store.record_payload(
                fingerprint=f"{run:064x}", kind=versioned_kind, scenario="gc",
                payload={"padding": "x" * 4096},
            )
        before = store.path.stat().st_size
        _CODECS.pop(versioned_kind)
        assert store.gc() == 64
        assert store.vacuum() > 0
        assert store.path.stat().st_size < before


class TestStoreErrors:
    def test_corrupt_store_file_reports_cleanly(self, tmp_path):
        corrupt = tmp_path / "corrupt.sqlite"
        corrupt.write_text("this is not a sqlite database, not even close")
        with pytest.raises(ResultsError, match="cannot open store"):
            ResultStore(corrupt).rows()

    def test_kind_without_codec_cannot_be_recorded(self, store):
        kind = "uncodeced"
        register_runner(kind, lambda trial: {"value": 1})
        try:
            scenario = Scenario(name="u", title="u", kind=kind, pods=1)
            with pytest.raises(ResultsError, match="no payload codec"):
                Engine().run(scenario, store=store)
        finally:
            RUNNERS.pop(kind, None)
