"""The ``telemetry`` result kind: persistence, round-trip, gc, spawn."""

from __future__ import annotations

from repro.engine import Engine, registry
from repro.engine.runners import execute_trial
from repro.obs import core
from repro.results import (
    TELEMETRY_KIND,
    ResultStore,
    codec_for,
    exports_from_store,
    record_telemetry,
    telemetry_fingerprint,
    trial_fingerprint,
)


def _scenario(**overrides):
    defaults = dict(pods=1, arrivals=20, loads=(0.4,), seeds=(0,))
    defaults.update(overrides)
    return registry.get("fig08").scenario.override(**defaults)


class TestExecuteTrialTelemetry:
    def test_disabled_runs_carry_no_telemetry(self):
        trial = _scenario().expand()[0]
        assert execute_trial(trial).telemetry is None

    def test_enabled_runs_attach_an_export(self):
        trial = _scenario().expand()[0]
        with core.enabled_scope():
            result = execute_trial(trial)
        telemetry = result.telemetry
        assert telemetry["label"] == (
            f"{trial.scenario}/{trial.variant.name}#{trial.index}"
        )
        assert "trial.rejection" in telemetry["phases"]
        assert "place" in telemetry["phases"]
        assert telemetry["counters"]["ledger.slot_mutations"] > 0

    def test_instrumentation_does_not_change_the_payload(self):
        trial = _scenario().expand()[0]
        plain = execute_trial(trial)
        with core.enabled_scope():
            traced = execute_trial(trial)
        codec = codec_for(trial.kind)
        assert codec.encode(traced.payload) == codec.encode(plain.payload)


class TestTelemetryStore:
    def test_fingerprint_is_namespaced_off_the_trial(self):
        trial = _scenario().expand()[0]
        fp = telemetry_fingerprint(trial)
        assert fp != trial_fingerprint(trial)
        assert len(fp) == 64

    def test_rows_round_trip_through_the_store(self, tmp_path):
        path = str(tmp_path / "runs.sqlite")
        scenario = _scenario()
        with core.enabled_scope():
            with ResultStore(path) as store:
                result = Engine(n_jobs=1).run(scenario, store=store)
        telemetries = {r.telemetry["label"]: r.telemetry for r in result}
        with ResultStore(path) as store:
            rows = store.rows(kind=TELEMETRY_KIND)
            trial_rows = store.rows(kind="rejection")
            exports = exports_from_store(store)
        assert len(rows) == len(trial_rows) == len(scenario.expand())
        for row in rows:
            assert row.payload() == telemetries[row.payload()["label"]]
        assert sorted(e["label"] for e in exports) == sorted(telemetries)

    def test_telemetry_never_masks_the_trial_cache(self, tmp_path):
        # A run with telemetry then one without: the second run must be
        # 100% cache hits (telemetry rows live under their own
        # fingerprints and codec kind, not the trial's).
        path = str(tmp_path / "runs.sqlite")
        scenario = _scenario()
        with core.enabled_scope():
            with ResultStore(path) as store:
                Engine(n_jobs=1).run(scenario, store=store)
        with ResultStore(path) as store:
            rerun = Engine(n_jobs=1).run(scenario, store=store)
        assert rerun.cache_hits == len(scenario.expand())

    def test_rows_survive_gc(self, tmp_path):
        path = str(tmp_path / "runs.sqlite")
        with core.enabled_scope():
            with ResultStore(path) as store:
                Engine(n_jobs=1).run(_scenario(), store=store)
        with ResultStore(path) as store:
            assert store.gc() == 0  # current codec: nothing reaped
            assert len(store.rows(kind=TELEMETRY_KIND)) == 2

    def test_record_telemetry_requires_an_export(self, tmp_path):
        path = str(tmp_path / "runs.sqlite")
        trial = _scenario().expand()[0]
        with core.enabled_scope():
            result = execute_trial(trial)
        with ResultStore(path) as store:
            record_telemetry(store, result)
            row, = store.rows(kind=TELEMETRY_KIND)
        assert row.scenario == trial.scenario
        assert row.seed == trial.seed


class TestSpawnParallel:
    def test_telemetry_survives_spawn_workers(self, tmp_path):
        path = str(tmp_path / "par.sqlite")
        scenario = _scenario(seeds=(0, 1))
        with core.enabled_scope():
            with ResultStore(path) as store:
                result = Engine(n_jobs=2).run(scenario, store=store)
        assert all(r.telemetry is not None for r in result)
        with ResultStore(path) as store:
            assert store.count(kind=TELEMETRY_KIND) == 4
