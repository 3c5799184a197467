"""Engine execution, context caches, registry, and CLI wiring."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.engine import (
    MAX_AUTO_JOBS,
    Engine,
    Scenario,
    Variant,
    build_context,
    default_jobs,
    execute_trial,
    get_pool,
    get_scaled_pool,
    get_topology,
    registry,
)
from repro.errors import EngineError
from repro.results import ResultStore
from repro.topology.builder import DatacenterSpec

TINY = Scenario(
    name="tiny",
    title="tiny rejection scenario",
    kind="rejection",
    variants=(Variant("cm"), Variant("ovoc")),
    loads=(0.4,),
    bmaxes=(800.0,),
    seeds=(0,),
    arrivals=40,
    pods=1,
)


class TestEngineRun:
    def test_serial_run_returns_grid_order(self):
        result = Engine(n_jobs=1).run(TINY)
        assert len(result) == 2
        assert [r.trial.variant.name for r in result] == ["cm", "ovoc"]
        assert [r.trial.index for r in result] == [0, 1]
        for trial_result in result:
            assert trial_result.payload.tenants_total == 40
            assert trial_result.elapsed >= 0.0

    def test_invalid_jobs_rejected(self):
        with pytest.raises(EngineError):
            Engine(n_jobs=-1)

    def test_jobs_zero_means_cpu_count(self):
        assert Engine(n_jobs=0).n_jobs >= 1

    def test_reported_n_jobs_is_effective_not_requested(self):
        single = TINY.override(variants=(Variant("cm"),))  # 1 trial
        result = Engine(n_jobs=4).run(single)
        assert result.n_jobs == 1  # serial fast path actually ran

    def test_unknown_kind_raises(self):
        bogus = Scenario(name="b", title="b", kind="nope")
        with pytest.raises(EngineError, match="no runner"):
            Engine().run(bogus)

    def test_runtime_kind_skips_capped_secondnet(self):
        scenario = Scenario(
            name="rt",
            title="rt",
            kind="runtime",
            variants=(Variant("secondnet"),),
            xs=(10, 500),
            pods=1,
            params=(("secondnet_size_cap", 120),),
        )
        payloads = Engine().run(scenario).payloads()
        assert payloads[0] is not None and payloads[0]["placed"]
        assert payloads[1] is None


class TestDefaultJobs:
    def test_resolves_from_cpu_count_capped(self, monkeypatch):
        import repro.engine.engine as engine_module

        monkeypatch.setattr(engine_module.os, "cpu_count", lambda: 64)
        assert default_jobs("rejection") == MAX_AUTO_JOBS
        monkeypatch.setattr(engine_module.os, "cpu_count", lambda: 2)
        assert default_jobs("rejection") == 2
        monkeypatch.setattr(engine_module.os, "cpu_count", lambda: None)
        assert default_jobs("rejection") == 1

    def test_wall_clock_kinds_stay_serial(self, monkeypatch):
        import repro.engine.engine as engine_module

        monkeypatch.setattr(engine_module.os, "cpu_count", lambda: 64)
        assert default_jobs("runtime") == 1

    def test_execute_trial_never_reads_the_wall_clock(self, monkeypatch):
        # Stored elapsed timings must come from the monotonic
        # perf_counter, immune to NTP/DST adjustments of time.time().
        import time as time_module

        def wall_clock_forbidden():  # pragma: no cover - failure path
            raise AssertionError("execute_trial must use perf_counter")

        monkeypatch.setattr(time_module, "time", wall_clock_forbidden)
        result = execute_trial(
            Scenario(name="s", title="s", kind="survey", pods=1).expand()[0]
        )
        assert result.elapsed >= 0.0


class TestContextCaches:
    def test_pool_cached_per_name(self):
        assert get_pool("bing") is get_pool("bing")

    def test_unknown_pool_rejected(self):
        with pytest.raises(EngineError, match="unknown pool"):
            get_pool("nope")

    def test_scaled_pool_cached_per_bmax(self):
        first = get_scaled_pool("bing", 800.0)
        assert first is get_scaled_pool("bing", 800.0)
        assert first is not get_scaled_pool("bing", 400.0)

    def test_topology_cached_per_spec(self):
        spec = DatacenterSpec(pods=1)
        assert get_topology(spec) is get_topology(DatacenterSpec(pods=1))
        assert get_topology(spec) is not get_topology(spec, unlimited=True)

    def test_build_context_fresh_mutable_state(self):
        trial = TINY.expand()[0]
        first, second = build_context(trial), build_context(trial)
        assert first.topology is second.topology  # immutable: shared
        assert first.ledger is not second.ledger  # mutable: fresh
        assert first.placer is not second.placer

    def test_trials_do_not_leak_reservations(self):
        trial = TINY.expand()[0]
        first = execute_trial(trial)
        second = execute_trial(trial)
        assert first.fingerprint() == second.fingerprint()


class TestRegistry:
    EXPECTED = {
        "failure",
        "fig01",
        "fig04",
        "fig07",
        "fig08",
        "fig09",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "inference",
        "runtime",
        "service",
        "table1",
        "temporal",
    }

    def test_all_experiments_registered(self):
        assert set(registry.names()) == self.EXPECTED

    def test_aliases_resolve(self):
        for alias, canonical in (("fig8", "fig08"), ("fig4", "fig04"), ("fig1", "fig01")):
            assert registry.get(alias).scenario.name == canonical

    def test_unknown_name_raises(self):
        with pytest.raises(EngineError, match="unknown scenario"):
            registry.get("nope")

    def test_name_colliding_with_alias_rejected(self):
        # "fig8" is an alias of fig08: a scenario named "fig8" would be
        # unreachable (alias resolution wins in get()).
        shadow = Scenario(name="fig8", title="shadow", kind="rejection")
        with pytest.raises(EngineError, match="collides"):
            registry.register(shadow, lambda result: None)

    def test_every_scenario_expands(self):
        for entry in registry.entries():
            trials = entry.scenario.expand()
            assert trials, entry.scenario.name
            assert len(trials) == entry.scenario.trial_count

    def test_presenters_render(self, capsys):
        # The cheap scenarios run end-to-end through present().
        for name in ("fig01", "fig04", "fig13"):
            entry = registry.get(name)
            entry.present(Engine().run(entry.scenario))
        out = capsys.readouterr().out
        assert "Fig. 1(a)" in out
        assert "web->logic" in out
        assert "senders in C2" in out


class TestCli:
    def test_run_with_grid_overrides(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "run",
                    "fig08",
                    "--pods",
                    "1",
                    "--arrivals",
                    "40",
                    "--loads",
                    "0.4",
                    "--seeds",
                    "0,1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Fig. 8" in out
        assert "4 trials" in out  # 1 load x 2 algorithms x 2 seeds

    def test_placer_override(self, capsys):
        from repro.cli import main

        assert (
            main(["run", "fig08", "--pods", "1", "--arrivals", "40",
                  "--loads", "0.4", "--placers", "cm"])
            == 0
        )
        out = capsys.readouterr().out
        assert "ovoc" not in out

    def test_placer_override_on_ha_scenario_does_not_crash(self, capsys):
        # Plain variants (no HaPolicy) must survive fig11's presenter.
        from repro.cli import main

        assert (
            main(["run", "fig11", "--pods", "1", "--arrivals", "40",
                  "--placers", "cm"])
            == 0
        )
        assert "CM+HA" in capsys.readouterr().out

    def test_noop_override_rejected(self, capsys):
        # table1 streams arrivals until the datacenter fills; --arrivals
        # would be a silent no-op and must be refused, not ignored.
        from repro.cli import main

        assert main(["run", "table1", "--arrivals", "100"]) == 2
        captured = capsys.readouterr()
        assert "no effect" in captured.err and captured.out == ""
        assert main(["run", "fig13", "--loads", "0.5"]) == 2

    def test_enforce_kind_accepts_placer_override(self, capsys):
        # The variant axis IS the tag/hose mode for enforcement kinds.
        from repro.cli import main

        assert main(["run", "fig13", "--placers", "hose"]) == 0
        out = capsys.readouterr().out
        assert "hose" in out

    def test_multi_seed_grid_renders_per_trial_tables(self, capsys):
        # Single-trial presenters (table1, inference) must survive the
        # CLI's multi-value --seeds grids.
        from repro.cli import main

        assert main(["run", "table1", "--pods", "1", "--seeds", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "seed 1" in out and "seed 2" in out

    def test_shorthand_reports_clean_errors(self, capsys):
        from repro.cli import main

        assert main(["fig08", "--pods", "0"]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""  # a redirected table never holds the error

    def test_runtime_kind_pinned_serial(self):
        # Wall-clock payloads must not race each other for CPU.
        scenario = registry.get("runtime").scenario.override(pods=1)
        scenario = scenario.override(xs=(10, 20), variants=(Variant("cm"),))
        result = Engine(n_jobs=4).run(scenario)
        assert result.n_jobs == 1
        assert all(r.payload["placed"] for r in result)


class TestDeadWorker:
    """A worker killed mid-trial ends the run; it must not hang it."""

    def test_run_reports_the_loss_and_keeps_what_finished(self, tmp_path):
        # dying_worker.py is `repro` plus a scenario whose last trial
        # SIGKILLs its own process.  Run as a script under a hard
        # timeout: multiprocessing.Pool used to lose the task silently
        # and wait for its result forever.
        script = Path(__file__).with_name("dying_worker.py")
        store = tmp_path / "d.sqlite"
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, str(script), "run", "dying", "--jobs", "2",
             "--store", str(store)],
            capture_output=True,
            text=True,
            env=env,
            timeout=30,
        )
        assert done.returncode == 1, done.stderr
        assert done.stdout == ""  # nothing presented, nothing filed as data
        found = re.search(
            r"error: a worker process died mid-trial: (\d) of 5 trials "
            r"finished \(and are in the store\), (\d) lost",
            done.stderr,
        )
        assert found, done.stderr
        finished, lost = map(int, found.groups())
        assert lost >= 1 and finished + lost == 5
        with ResultStore(str(store)) as rows:
            assert rows.count(kind="dying") == finished
