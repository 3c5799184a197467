"""``repro results export`` — CSV/JSONL rows per stored trial."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.cli import main
from repro.engine import Engine, registry
from repro.errors import ResultsError
from repro.obs import core
from repro.results import ResultStore, stream_export

RUN_FLAGS = ["--pods", "1", "--arrivals", "30", "--loads", "0.4",
             "--seeds", "0,1", "--jobs", "1"]


@pytest.fixture
def populated(tmp_path):
    path = str(tmp_path / "runs.sqlite")
    scenario = registry.get("fig08").scenario.override(
        pods=1, arrivals=30, loads=(0.4,), seeds=(0, 1)
    )
    with ResultStore(path) as store:
        Engine().run(scenario, store=store)
    return path


def _export(store, fmt, **filters):
    """What ``repro results export`` writes: ``(text, row_count)``."""
    out = io.StringIO()
    count = stream_export(lambda: store.iter_rows(**filters), fmt, out)
    return out.getvalue(), count


class TestExportStore:
    def test_csv_round_trips_grid_and_metrics(self, populated):
        with ResultStore(populated) as store:
            text, count = _export(store, "csv")
            expected_rows = store.rows()
        assert count == len(expected_rows) == 4
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 4
        first = parsed[0]
        assert first["scenario"] == "fig08"
        assert first["kind"] == "rejection"
        assert {row["variant"] for row in parsed} == {"cm", "ovoc"}
        assert {row["seed"] for row in parsed} == {"0", "1"}
        # Payload scalars are flattened as metric_* columns.
        metric_columns = [c for c in parsed[0] if c.startswith("metric_")]
        assert metric_columns, "expected flattened payload metrics"
        for row in parsed:
            for column in metric_columns:
                float(row[column])  # parses as a number

    def test_jsonl_rows_are_self_describing(self, populated):
        with ResultStore(populated) as store:
            text, count = _export(store, "jsonl")
        lines = text.strip().split("\n")
        assert count == len(lines) == 4
        for line in lines:
            record = json.loads(line)
            assert record["scenario"] == "fig08"
            assert record["fingerprint"]
            assert any(key.startswith("metric_") for key in record)

    def test_scenario_filter(self, populated):
        with ResultStore(populated) as store:
            _, count = _export(store, "csv", scenario="fig08")
            _, none = _export(store, "csv", scenario="other")
        assert count == 4 and none == 0

    def test_deterministic_output(self, populated):
        with ResultStore(populated) as store:
            first, _ = _export(store, "csv")
            second, _ = _export(store, "csv")
        assert first == second

    def test_unknown_format_rejected(self, populated):
        with ResultStore(populated) as store:
            with pytest.raises(ResultsError):
                _export(store, "parquet")

    def test_empty_rows_export(self):
        jsonl, csv_text = io.StringIO(), io.StringIO()
        assert stream_export(lambda: iter([]), "jsonl", jsonl) == 0
        assert jsonl.getvalue() == ""
        assert stream_export(lambda: iter([]), "csv", csv_text) == 0
        header = csv_text.getvalue().strip().split(",")
        assert "fingerprint" in header


@pytest.fixture
def planes_store(tmp_path):
    """A store holding the PR 5 kinds: fig13 (enforce) + temporal rows."""
    path = str(tmp_path / "planes.sqlite")
    fig13 = registry.get("fig13").scenario.override(xs=(0, 2))
    temporal = registry.get("temporal").scenario.override(
        xs=(2,), params=(("tenants", 8), ("trough", 0.2))
    )
    with ResultStore(path) as store:
        Engine().run(fig13, store=store)
        Engine().run(temporal, store=store)
    return path


class TestNewKindColumns:
    """Schema stability for the fig13/temporal metric columns."""

    def test_enforce_metric_columns(self, planes_store):
        with ResultStore(planes_store) as store:
            text, count = _export(store, "csv", kind="enforce")
        assert count == 4  # 2 variants x 2 sender counts
        parsed = list(csv.DictReader(io.StringIO(text)))
        for row in parsed:
            assert row["kind"] == "enforce"
            float(row["metric_x_to_z"])
            float(row["metric_c2_to_z"])

    def test_temporal_metric_columns(self, planes_store):
        with ResultStore(planes_store) as store:
            text, count = _export(store, "csv", kind="temporal")
        assert count == 2  # window + peak variants
        parsed = list(csv.DictReader(io.StringIO(text)))
        for row in parsed:
            assert row["kind"] == "temporal"
            assert float(row["metric_admitted"]) >= 0
            assert 0.0 <= float(row["metric_admitted_fraction"]) <= 1.0
            float(row["metric_peak_window_utilization"])
            float(row["metric_mean_window_utilization"])
        by_variant = {row["variant"]: row for row in parsed}
        assert float(by_variant["window"]["metric_admitted"]) >= float(
            by_variant["peak"]["metric_admitted"]
        )

    def test_mixed_kinds_share_sorted_metric_union(self, planes_store):
        with ResultStore(planes_store) as store:
            text, _ = _export(store, "csv")
        header = text.splitlines()[0].split(",")
        metric_columns = [c for c in header if c.startswith("metric_")]
        assert metric_columns == sorted(metric_columns)
        assert "metric_x_to_z" in metric_columns
        assert "metric_admitted" in metric_columns


class TestOutputParity:
    """``--output -`` (stdout) and a file path emit identical bytes."""

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_stdout_dash_matches_file(self, planes_store, tmp_path, fmt, capsys):
        out_path = tmp_path / f"rows.{fmt}"
        assert main(
            ["results", "export", planes_store, "--format", fmt,
             "-o", str(out_path)]
        ) == 0
        capsys.readouterr()  # drop the "wrote N rows" notice
        assert main(
            ["results", "export", planes_store, "--format", fmt,
             "--output", "-"]
        ) == 0
        stdout_text = capsys.readouterr().out
        assert stdout_text == out_path.read_text(encoding="utf-8")

    def test_default_stdout_matches_dash(self, planes_store, capsys):
        assert main(["results", "export", planes_store, "--kind", "temporal"]) == 0
        default_text = capsys.readouterr().out
        assert main(
            ["results", "export", planes_store, "--kind", "temporal",
             "--output", "-"]
        ) == 0
        assert capsys.readouterr().out == default_text


class TestStreaming:
    """The exporter streams: O(1) row buffer, incremental writes."""

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_stream_matches_materialized_export(self, populated, fmt):
        buffer, materialized = io.StringIO(), io.StringIO()
        with ResultStore(populated) as store:
            count = stream_export(store.iter_rows, fmt, buffer)
            rows = store.rows()
            stream_export(lambda: iter(rows), fmt, materialized)
        assert count == 4
        assert buffer.getvalue() == materialized.getvalue()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_row_buffer_peak_is_one(self, populated, fmt):
        # The obs gauge records the peak number of simultaneously-live
        # flattened rows: streaming must never hold more than one.
        with core.enabled_scope() as counters:
            with ResultStore(populated) as store:
                stream_export(store.iter_rows, fmt, io.StringIO())
            assert counters["export.row_buffer_peak"] == 1
            assert counters["export.rows"] == 4

    def test_iter_rows_is_lazy(self, populated):
        with ResultStore(populated) as store:
            iterator = store.iter_rows()
            first = next(iterator)
            assert first.scenario == "fig08"
            # Matches the materialized accessor row-for-row.
            rest = list(iterator)
            assert [first, *rest] == store.rows()

    def test_count_matches_rows(self, populated):
        with ResultStore(populated) as store:
            assert store.count() == len(store.rows()) == 4
            assert store.count(scenario="fig08") == 4
            assert store.count(scenario="other") == 0

    def test_csv_detects_store_changes_between_passes(self, populated):
        # CSV makes two passes; a store mutated in between must fail
        # loudly rather than emit a silently-truncated file.
        with ResultStore(populated) as store:
            rows = store.rows()
        calls = iter([rows, rows[:2]])

        with pytest.raises(ResultsError, match="changed during export"):
            stream_export(lambda: iter(next(calls)), "csv", io.StringIO())

    def test_empty_filter_creates_no_file(self, populated, tmp_path, capsys):
        dest = tmp_path / "never.csv"
        assert main(
            ["results", "export", populated, "--scenario", "nope",
             "-o", str(dest)]
        ) == 1
        assert not dest.exists()
        assert "no stored results" in capsys.readouterr().err


class TestExportCli:
    def test_export_to_stdout(self, capsys, populated):
        assert main(["results", "export", populated, "--format", "jsonl"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().split("\n")) == 4

    def test_export_to_file(self, capsys, tmp_path, populated):
        dest = tmp_path / "trials.csv"
        assert main(
            ["results", "export", populated, "-o", str(dest)]
        ) == 0
        assert "wrote 4 rows" in capsys.readouterr().out
        parsed = list(csv.DictReader(io.StringIO(dest.read_text())))
        assert len(parsed) == 4

    def test_export_filter_without_matches_fails(self, capsys, populated):
        assert (
            main(["results", "export", populated, "--scenario", "nope"]) == 1
        )
        captured = capsys.readouterr()
        # the notice is a diagnostic: stderr, so a piped stdout stays
        # a clean (empty) data stream
        assert "no stored results" in captured.err
        assert captured.out == ""

    def test_export_missing_store_reports_cleanly(self, capsys, tmp_path):
        missing = str(tmp_path / "absent.sqlite")
        assert main(["results", "export", missing]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
