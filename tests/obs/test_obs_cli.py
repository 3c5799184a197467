"""The obs-facing CLI surface: profile, trace export, -v/-q stripping."""

from __future__ import annotations

import json
import pstats

from repro.cli import _strip_verbosity, main
from repro.engine import Engine, registry
from repro.obs import core
from repro.obs.profile import profile_main
from repro.obs.trace import trace_main
from repro.results import ResultStore


class TestProfileCommand:
    def test_profiles_runtime_trials(self, capsys):
        assert profile_main(["runtime", "--trials", "2", "--top", "5"]) == 0
        captured = capsys.readouterr()
        assert "profiling 2 'runtime' trial(s)" in captured.err
        assert "function calls" in captured.out
        assert "obs counters:" in captured.out
        assert "ledger.slot_mutations" in captured.out
        # The scope must not leak enablement into the test process.
        assert "obs-test-leak" not in core.counter_snapshot()

    def test_dumps_loadable_pstats(self, tmp_path, capsys):
        out = tmp_path / "runtime.pstats"
        assert profile_main(
            ["runtime", "--trials", "1", "-o", str(out)]
        ) == 0
        capsys.readouterr()
        stats = pstats.Stats(str(out))
        assert stats.total_calls > 0

    def test_sort_key_is_applied(self, capsys):
        assert profile_main(
            ["runtime", "--trials", "1", "--sort", "tottime", "--top", "3"]
        ) == 0
        assert "internal time" in capsys.readouterr().out

    def test_store_persists_trials_and_telemetry(self, tmp_path, capsys):
        path = str(tmp_path / "profiled.sqlite")
        assert profile_main(
            ["runtime", "--trials", "2", "--store", path]
        ) == 0
        assert "recorded 2 trial(s)" in capsys.readouterr().err
        with ResultStore(path) as store:
            trial_rows = store.rows(kind="runtime")
            telemetry_rows = store.rows(kind="telemetry")
        # One trial row and one telemetry row per profiled trial — the
        # same shape 'repro run --store --telemetry' would leave behind.
        assert len(trial_rows) == 2
        assert len(telemetry_rows) == 2
        assert all(row.payload() is not None for row in telemetry_rows)

    def test_store_combines_with_output(self, tmp_path, capsys):
        path = str(tmp_path / "profiled.sqlite")
        out = tmp_path / "runtime.pstats"
        assert profile_main(
            ["runtime", "--trials", "1", "--store", path, "-o", str(out)]
        ) == 0
        err = capsys.readouterr().err
        assert "recorded 1 trial(s)" in err
        assert "wrote raw profile" in err
        assert pstats.Stats(str(out)).total_calls > 0
        with ResultStore(path) as store:
            assert store.count(kind="runtime") == 1

    def test_takes_run_s_overrides_and_scenario_options(self, capsys):
        # Same parser rows and the same build_scenario as 'repro run'.
        assert profile_main(
            ["fig13", "--max-senders", "1", "--placers", "tag", "--trials", "0"]
        ) == 0
        assert "profiling 2 'enforce' trial(s)" in capsys.readouterr().err
        assert profile_main(["fig13", "--loads", "0.5"]) == 2
        assert "no effect" in capsys.readouterr().err
        assert profile_main(["fig08", "--pods", "1", "--seeds", ""]) == 1
        assert "error:" in capsys.readouterr().err

    def test_store_is_closed_after_recording(self, tmp_path, monkeypatch):
        closed = []
        close = ResultStore.close
        monkeypatch.setattr(
            ResultStore, "close", lambda self: (closed.append(self), close(self))
        )
        path = str(tmp_path / "p.sqlite")
        assert profile_main(["runtime", "--trials", "1", "--store", path]) == 0
        assert len(closed) == 1

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert profile_main(["nope"]) == 2
        captured = capsys.readouterr()
        assert "nope" in captured.err and captured.out == ""

    def test_routed_from_the_main_entry_point(self, capsys):
        assert main(["profile", "runtime", "--trials", "1"]) == 0
        assert "obs counters:" in capsys.readouterr().out


class TestTraceExport:
    def _store_with_telemetry(self, tmp_path) -> str:
        path = str(tmp_path / "runs.sqlite")
        scenario = registry.get("fig08").scenario.override(
            pods=1, arrivals=20, loads=(0.4,), seeds=(0,)
        )
        with core.enabled_scope():
            with ResultStore(path) as store:
                Engine(n_jobs=1).run(scenario, store=store)
        return path

    def test_exports_chrome_trace_json(self, tmp_path, capsys):
        store_path = self._store_with_telemetry(tmp_path)
        out = tmp_path / "trace.json"
        assert trace_main(
            ["export", "--store", store_path, "-o", str(out)]
        ) == 0
        assert "trace track(s)" in capsys.readouterr().out
        trace = json.loads(out.read_text())
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        tracks = [e for e in events if e["ph"] == "M"]
        assert len(tracks) == 2  # cm + ovoc
        assert all("fig08/" in e["args"]["name"] for e in tracks)
        assert any(e["ph"] == "X" and e["name"].startswith("trial.")
                   for e in events)

    def test_stdout_and_limit(self, tmp_path, capsys):
        store_path = self._store_with_telemetry(tmp_path)
        assert main(
            ["trace", "export", "--store", store_path, "--limit", "1"]
        ) == 0
        trace = json.loads(capsys.readouterr().out)
        assert len([e for e in trace["traceEvents"] if e["ph"] == "M"]) == 1

    def test_empty_store_fails_with_a_message(self, tmp_path, capsys):
        path = str(tmp_path / "empty.sqlite")
        with ResultStore(path):
            pass
        assert trace_main(["export", "--store", path]) == 1
        assert "no stored telemetry" in capsys.readouterr().out


class TestVerbosityStripping:
    def test_leading_flags_are_consumed(self):
        assert _strip_verbosity(["-v", "run", "fig08"]) == (["run", "fig08"], 1)
        assert _strip_verbosity(["-vv", "list"]) == (["list"], 2)
        assert _strip_verbosity(["-q", "-v", "-v", "list"]) == (["list"], 1)
        assert _strip_verbosity(["--quiet", "list"]) == (["list"], -1)

    def test_non_leading_flags_are_left_alone(self):
        argv, verbosity = _strip_verbosity(["run", "fig08", "-v"])
        assert argv == ["run", "fig08", "-v"] and verbosity == 0

    def test_verbose_list_still_lists(self, capsys):
        assert main(["-v", "list"]) == 0
        assert "registered scenarios" in capsys.readouterr().out
