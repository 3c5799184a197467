"""The obs-facing CLI surface: stored telemetry, trace export, profiling."""

from __future__ import annotations

import json
import os
import pstats
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine import Engine, registry
from repro.obs import core
from repro.obs.trace import trace_main
from repro.results import TELEMETRY_KIND, ResultStore

ROOT = Path(__file__).resolve().parents[2]
TINY_FIG08 = ["fig08", "--pods", "1", "--arrivals", "30", "--loads", "0.5",
              "--seeds", "0", "--jobs", "1"]


@pytest.fixture
def obs_state():
    """Tests run with obs off: undo what ``--telemetry`` turns on in-process."""
    yield
    core.disable()


@pytest.mark.usefixtures("obs_state")
class TestRunTelemetry:
    def test_one_telemetry_row_per_executed_trial(self, tmp_path, capsys):
        path = str(tmp_path / "runs.sqlite")
        argv = ["run", *TINY_FIG08, "--telemetry", "--store", path]
        assert main(argv) == 0
        assert main(argv) == 0  # all cached: nothing executes, nothing traced
        assert "2 cached" in capsys.readouterr().out
        with ResultStore(path) as store:
            trial_rows = store.rows(kind="rejection")
            telemetry_rows = store.rows(kind=TELEMETRY_KIND)
        assert len(trial_rows) == len(telemetry_rows) == 2
        assert all(row.payload()["phases"] for row in telemetry_rows)

    def test_results_show_reports_the_stored_counters(self, tmp_path, capsys):
        path = str(tmp_path / "runs.sqlite")
        assert main(["run", *TINY_FIG08, "--telemetry", "--store", path]) == 0
        capsys.readouterr()
        assert main(["results", "show", path, "fig08"]) == 0
        out = capsys.readouterr().out
        assert "counter_ledger.slot_mutations" in out
        assert "bw_rejection_rate" in out


def test_the_readme_profiling_recipe_writes_a_loadable_profile(tmp_path):
    # The README's recipe as written there; only its -o file moves to tmp_path.
    readme = (ROOT / "README.md").read_text().replace("\\\n", " ")
    recipe = re.search(r"python -m cProfile -o \S+ -m repro\.cli ([^#\n]+)", readme)
    assert recipe is not None, "the README lost its cProfile recipe"
    out = tmp_path / "run.pstats"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-m", "cProfile", "-o", str(out), "-m", "repro.cli",
         *recipe.group(1).split()],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "fig08 — the paper's claims" in done.stdout
    functions = {name for _, _, name in pstats.Stats(str(out)).stats}
    assert "execute_trial" in functions


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
