"""``repro run`` is the one experiment CLI: every registered scenario.

``repro <name> ...`` must be nothing but a spelling of ``repro run <name>
...``; a scenario's own flags are registry data that parse through the
same parser as ``--store``/``--seeds`` and end up in the trial (hence in
its fingerprint); ``--help`` shows a scenario exactly the flags that
mean something for it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re

import pytest

from repro.cli import _AXIS_FLAGS, build_scenario, main, parse_scenario_args
from repro.engine import Engine, kind_axes, registry
from repro.results import ResultStore
from repro.results.fingerprint import trial_fingerprint

NAMES = registry.names()

# Grid flags that shrink a scenario to a second or two, by the axis they set.
_TINY = {
    "pods": ["--pods", "1"],
    "arrivals": ["--arrivals", "30"],
    "loads": ["--loads", "0.5"],
    "bmaxes": ["--bmax", "800"],
}

# One row per declared option: (scenario, flag, text, does this trial
# carry the value?).  Values are chosen outside the registered defaults.
OPTION_CASES = [
    ("table1", "--workload", "hpcloud", lambda t: t.pool == "hpcloud"),
    ("fig13", "--max-senders", "7", lambda t: t.x == 7),
    ("inference", "--max-vms", "30", lambda t: t.param("max_vms") == 30),
    (
        "inference",
        "--max-applications",
        "5",
        lambda t: t.param("max_applications") == 5,
    ),
    ("temporal", "--windows", "6,10", lambda t: t.x in (6, 10)),
    ("failure", "--fractions", "0.15", lambda t: t.x == 0.15),
]


def tiny_args(name: str) -> list[str]:
    axes = kind_axes(registry.get(name).scenario.kind)
    return [arg for axis, args in _TINY.items() if axis in axes for arg in args]


def scenario_for(argv: list[str]):
    parser = argparse.ArgumentParser(prog="repro run")
    entry, args = parse_scenario_args(parser, argv)
    return build_scenario(entry, args)


def stdout_of(capsys, argv: list[str]) -> str:
    assert main(argv) == 0
    # The trailer's wall clock is the one thing two runs may differ in.
    return re.sub(r" in \d+\.\d+s ", " in _s ", capsys.readouterr().out)


class TestOneFrontDoor:
    def test_every_paper_artifact_is_registered(self):
        # The parametrised tests below cover what is registered; this
        # pins what must be.
        assert set(NAMES) == {
            "fig01", "fig04", "fig07", "fig08", "fig09", "fig10", "fig11",
            "fig12", "fig13", "table1", "runtime", "inference", "temporal",
            "failure",
        }

    @pytest.mark.parametrize("name", NAMES)
    def test_shorthand_is_run(self, name, capsys, tmp_path):
        # Through a store, so wall-clock payload columns (runtime,
        # failure) come back as recorded instead of re-measured
        # — and so --store is shown to work after the shorthand.
        args = [*tiny_args(name), "--jobs", "1", "--store", str(tmp_path / "s.sqlite")]
        first = stdout_of(capsys, ["run", name, *args])
        assert ", 0 cached)" in first
        spelled = stdout_of(capsys, ["run", name, *args])
        short = stdout_of(capsys, [name, *args])
        assert short == spelled
        assert re.search(r"\] (\d+) trials? in .*, \1 cached\)", short)

    def test_alias_is_run_too(self, capsys):
        assert stdout_of(capsys, ["fig4"]) == stdout_of(capsys, ["run", "fig04"])

    def test_seed_is_only_the_prefix_of_seeds(self, capsys):
        # No --seed flag exists; argparse resolves the unambiguous
        # prefix, so old `repro fig08 --seed 3` lines keep their meaning.
        tiny = [*tiny_args("fig08"), "--jobs", "1"]
        assert stdout_of(capsys, ["fig08", *tiny, "--seed", "3"]) == stdout_of(
            capsys, ["run", "fig08", *tiny, "--seeds", "3"]
        )
        with pytest.raises(SystemExit):
            main(["run", "fig08", "-h"])
        assert not re.search(r"--seed\b(?!s)", capsys.readouterr().out)

    def test_the_scenario_comes_first(self, capsys):
        assert main(["run", "--pods", "1", "fig08"]) == 2
        captured = capsys.readouterr()
        assert "scenario comes first" in captured.err and captured.out == ""


class TestScenarioOptions:
    def test_every_declared_option_has_a_case(self):
        declared = {
            (entry.name, option.flag)
            for entry in registry.entries()
            for option in entry.options
        }
        assert declared == {(name, flag) for name, flag, _, _ in OPTION_CASES}

    @pytest.mark.parametrize(
        "name,flag,text,carries",
        OPTION_CASES,
        ids=[f"{name}{flag}" for name, flag, _, _ in OPTION_CASES],
    )
    def test_option_reaches_the_trial_and_its_fingerprint(
        self, name, flag, text, carries
    ):
        default = scenario_for([name]).expand()
        assert not any(carries(trial) for trial in default)
        stale = {trial_fingerprint(trial) for trial in default}
        reached = [t for t in scenario_for([name, flag, text]).expand() if carries(t)]
        assert reached
        # A store filled by the default run can serve none of them.
        assert not stale & {trial_fingerprint(trial) for trial in reached}

    def test_a_scenario_flag_composes_with_the_store(self, capsys, tmp_path):
        argv = ["run", "table1", "--workload", "hpcloud", "--pods", "1",
                "--store", str(tmp_path / "t.sqlite")]
        first = stdout_of(capsys, argv)
        assert "hpcloud workload" in first and "1 trial in _s (n_jobs=1, 0 cached)" in first
        second = stdout_of(capsys, argv)
        assert second == first.replace("0 cached", "1 cached")
        # ... and the bing table is a different row, not a cache hit.
        assert ", 0 cached)" in stdout_of(capsys, [a for a in argv if a not in ("--workload", "hpcloud")])

    def test_an_option_belongs_to_its_scenario_only(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["run", "fig08", "--workload", "hpcloud"])
        assert exit_.value.code == 2
        assert "--workload" in capsys.readouterr().err

    def test_option_values_are_validated_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["table1", "--workload", "azure"])
        assert exit_.value.code == 2
        assert "is not one of" in capsys.readouterr().err


class TestPlacers:
    """``--placers`` picks the scenario's own variants of those placers."""

    def test_fig11_keeps_its_ha_variants_and_labels(self, capsys):
        variants = scenario_for(["fig11", "--placers", "cm"]).variants
        assert [v.name for v in variants] == ["cm@0%", "cm@25%", "cm@50%", "cm@75%"]
        assert all(v.placer == "cm" and v.ha is not None for v in variants)
        out = stdout_of(capsys, ["fig11", "--placers", "cm", *tiny_args("fig11")])
        assert len(re.findall(r"^\d+%\s+CM\+HA ", out, re.M)) == 4

    def test_fig12_keeps_its_three_modes(self):
        variants = scenario_for(["fig12", "--placers", "cm"]).variants
        assert [v.name for v in variants] == ["cm", "cm+ha", "cm+oppha"]

    def test_an_undeclared_placer_runs_plain_in_the_order_given(self):
        variants = scenario_for(["fig08", "--placers", "secondnet,ovoc"]).variants
        assert [(v.name, v.placer, v.ha) for v in variants] == [
            ("secondnet", "secondnet", None),
            ("ovoc", "ovoc", None),
        ]


class TestHelp:
    @pytest.mark.parametrize("name", NAMES)
    def test_help_lists_what_the_scenario_consumes(self, name, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["run", name, "--help"])
        assert exit_.value.code == 0
        listed = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M))
        entry = registry.get(name)
        consumed = kind_axes(entry.scenario.kind)
        expected = {flag for flag, axis, _, _ in _AXIS_FLAGS if axis in consumed}
        expected |= {option.flag for option in entry.options}
        expected |= {"--jobs", "--store", "--progress", "--telemetry"}
        assert listed == expected


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """One store per scenario (equal grid points of two scenarios would
    share a row), each filled by a tiny run: name -> (path, trials)."""
    filled = {}
    for name in NAMES:
        path = str(tmp_path_factory.mktemp(name) / "s.sqlite")
        scenario = scenario_for([name, *tiny_args(name)])
        with ResultStore(path) as store:
            result = Engine(n_jobs=1).run(scenario, store=store)
        filled[name] = (path, len(result))
    return filled


class TestStoredResults:
    @pytest.mark.parametrize("name", NAMES)
    def test_show_reads_every_scenario(self, name, stores, capsys):
        shown = main(["results", "show", stores[name][0], name])
        out = capsys.readouterr().out
        if name == "fig01":  # a survey: its codec extracts no metrics
            assert shown == 1
            assert out == "scenario 'fig01' (kind 'survey') stores no metrics\n"
        else:
            assert shown == 0 and "mean [95% CI]" in out

    @pytest.mark.parametrize("name", NAMES)
    def test_export_reads_every_scenario(self, name, stores, capsys):
        path, trials = stores[name]
        assert main(["results", "export", path, "--format", "jsonl"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert main(["results", "export", path, "--format", "csv"]) == 0
        table = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        for exported in (rows, table):
            assert len(exported) == trials
            assert {row["scenario"] for row in exported} == {name}


# Spellings of removed features: verbosity flags, `repro profile`,
# sharding and merging, and the two `repro results` options that became
# constants.  Each is a usage error before anything runs or is stored.
TINY_RUN = [*tiny_args("fig08"), "--jobs", "1"]
RETIRED = [
    ["-v", "list"],
    ["-vv", "list"],
    ["-q", "list"],
    ["--verbose", "list"],
    ["--quiet", "list"],
    ["profile", "fig08"],
    ["run", "fig08", *TINY_RUN, "--shard", "0/2", "--store", "s.sqlite"],
    ["results", "merge", "d.sqlite", "a.sqlite"],
    ["results", "show", "s.sqlite", "fig08", "--confidence", "0.9"],
    ["results", "gc", "s.sqlite", "--vacuum"],
    ["run", "fig08", *TINY_RUN, "--telemetry"],
]


@pytest.mark.parametrize("argv", RETIRED, ids=" ".join)
def test_a_retired_spelling_is_refused(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exit_:  # argparse's own usage errors
        code = exit_.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []
