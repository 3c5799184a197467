"""The ``repro run --store/--shard`` flags and ``repro results`` verbs."""

from __future__ import annotations

import sqlite3

import pytest

from repro.cli import main

RUN_FLAGS = ["--pods", "1", "--arrivals", "30", "--loads", "0.4",
             "--seeds", "0,1", "--jobs", "1"]


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "runs.sqlite")


class TestRunWithStore:
    def test_second_run_reports_all_cached(self, capsys, store_path):
        assert main(["run", "fig08", *RUN_FLAGS, "--store", store_path]) == 0
        assert "0 cached" in capsys.readouterr().out
        assert main(["run", "fig08", *RUN_FLAGS, "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "4 cached" in out
        assert "Fig. 8" in out  # presenter still renders from cache

    def test_shard_requires_store(self, capsys):
        assert main(["run", "fig08", *RUN_FLAGS, "--shard", "0/2"]) == 2
        assert "--shard needs --store" in capsys.readouterr().err

    def test_malformed_shard_reports_cleanly(self, capsys, store_path):
        assert (
            main(["run", "fig08", *RUN_FLAGS, "--store", store_path,
                  "--shard", "nope"])
            == 1
        )
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_sharded_runs_cover_the_matrix(self, capsys, store_path):
        assert main(["run", "fig08", *RUN_FLAGS, "--store", store_path,
                     "--shard", "0/2"]) == 0
        assert "2 trials" in capsys.readouterr().out
        assert main(["run", "fig08", *RUN_FLAGS, "--store", store_path,
                     "--shard", "1/2"]) == 0
        assert "2 trials" in capsys.readouterr().out
        # Full matrix now cached from the two shard passes.
        assert main(["run", "fig08", *RUN_FLAGS, "--store", store_path]) == 0
        assert "4 cached" in capsys.readouterr().out


class TestResultsVerbs:
    @pytest.fixture
    def populated(self, store_path, capsys):
        assert main(["run", "fig08", *RUN_FLAGS, "--store", store_path]) == 0
        capsys.readouterr()  # drop the run output
        return store_path

    def test_list(self, capsys, populated):
        assert main(["results", "list", populated]) == 0
        out = capsys.readouterr().out
        assert "fig08" in out and "rejection" in out and "4" in out

    def test_show_renders_ci_table(self, capsys, populated):
        assert main(["results", "show", populated, "fig08"]) == 0
        out = capsys.readouterr().out
        assert "mean [95% CI]" in out and "bw_rejection_rate" in out

    def test_show_with_metric_filters_and_charts(self, capsys, populated):
        assert main(["results", "show", populated, "fig08",
                     "--metric", "vm_rejection_rate"]) == 0
        out = capsys.readouterr().out
        assert "vm_rejection_rate" in out
        assert "bw_rejection_rate" not in out

    def test_show_unknown_scenario_fails(self, capsys, populated):
        assert main(["results", "show", populated, "nope"]) == 1
        assert "no stored results" in capsys.readouterr().out

    def test_merge_and_gc(self, capsys, tmp_path, populated):
        dest = str(tmp_path / "merged.sqlite")
        assert main(["results", "merge", dest, populated]) == 0
        assert "merged 4 new rows" in capsys.readouterr().out
        assert main(["results", "gc", dest]) == 0
        assert "removed 0 stale rows; 4 remain" in capsys.readouterr().out
        assert main(["results", "gc", dest, "--vacuum"]) == 0
        assert "vacuum reclaimed" in capsys.readouterr().out

    def test_row_of_a_retired_kind_points_at_gc(self, capsys, tmp_path, populated):
        # What a store fed by the removed bench-trajectory command still holds.
        with sqlite3.connect(populated) as connection:
            connection.execute(
                "INSERT INTO results VALUES ('f00d', 'bench', 1, 'old', '-', "
                "'-', 0, 0, 0, 'null', 0, 0, 0, '{}')"
            )
        connection.close()
        out_file = str(tmp_path / "rows.csv")
        assert main(["results", "list", populated]) == 0
        assert "5 rows total" in capsys.readouterr().out
        assert main(["results", "export", populated, "-o", out_file]) == 1
        err = capsys.readouterr().err
        assert "'bench'" in err and "repro results gc" in err
        assert "register_codec" not in err and "Traceback" not in err
        assert main(["results", "gc", populated]) == 0
        assert "removed 1 stale rows; 4 remain" in capsys.readouterr().out
        assert main(["results", "export", populated, "-o", out_file]) == 0

    def test_missing_store_reports_cleanly(self, capsys, tmp_path):
        missing = str(tmp_path / "absent.sqlite")
        for argv in (["results", "list", missing],
                     ["results", "show", missing, "fig08"],
                     ["results", "gc", missing]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert "no results store" in err and "Traceback" not in err


# One stored row damaged three ways: cut mid-JSON, emptied to an object
# with none of its fields, and given a field its payload type lacks.
CORRUPTIONS = {
    "truncated": lambda text: text[:40],
    "empty": lambda text: "{}",
    "extra-key": lambda text: text[:-1] + ',"zzz_extra":1}',
}


class TestCorruptRow:
    @pytest.fixture(params=sorted(CORRUPTIONS))
    def corrupted(self, request, store_path, capsys):
        assert main(["run", "fig08", *RUN_FLAGS, "--store", store_path]) == 0
        capsys.readouterr()
        with sqlite3.connect(store_path) as connection:
            fingerprint, text = connection.execute(
                "SELECT fingerprint, payload FROM results ORDER BY fingerprint"
            ).fetchone()
            connection.execute(
                "UPDATE results SET payload = ? WHERE fingerprint = ?",
                (CORRUPTIONS[request.param](text), fingerprint),
            )
        connection.close()
        return store_path, fingerprint

    @pytest.mark.parametrize("verb", ["show", "export", "run"])
    def test_reading_it_is_a_clean_error_naming_gc(self, capsys, corrupted, verb):
        store_path, fingerprint = corrupted
        argv = {
            "show": ["results", "show", store_path, "fig08"],
            "export": ["results", "export", store_path],
            "run": ["run", "fig08", *RUN_FLAGS, "--store", store_path],
        }[verb]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert fingerprint[:12] in captured.err and "'rejection'" in captured.err
        assert "repro results gc" in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_gc_reaps_exactly_it_and_the_rerun_refills_it(self, capsys, corrupted):
        store_path, _ = corrupted
        assert main(["results", "gc", store_path]) == 0
        assert "removed 1 stale rows; 3 remain" in capsys.readouterr().out
        assert main(["run", "fig08", *RUN_FLAGS, "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "4 trials" in out and "3 cached" in out
        assert main(["results", "gc", store_path]) == 0
        assert "removed 0 stale rows; 4 remain" in capsys.readouterr().out
