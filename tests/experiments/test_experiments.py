"""Shape tests for the experiment drivers (small, fast configurations).

Each test asserts the corresponding paper claim *qualitatively* at a
reduced scale; the benchmarks regenerate the full tables.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    fig01_survey,
    fig04_hose_failure,
    fig10_ablation,
    fig11_wcs_guarantee,
    fig13_enforcement,
    inference_ami,
    runtime_scaling,
    table1_reserved_bw,
)

FAST = dict(pods=1, arrivals=120, seed=0)


class TestFig1:
    def test_claims(self):
        result = fig01_survey.run()
        assert result.interactive_median > result.batch_median
        assert len(result.server_ratios) == 4


class TestFig4:
    def test_tag_holds_hose_fails(self):
        outcomes = fig04_hose_failure.run()
        assert outcomes["tag"].web_guarantee_met
        assert not outcomes["hose"].web_guarantee_met


class TestTable1:
    def test_orderings(self):
        result = table1_reserved_bw.run(pods=1, bmax=800.0, seed=1)
        reserved = result.reserved
        for level in ("server", "tor", "agg"):
            assert reserved.cm_voc[level] >= reserved.cm_tag[level] - 1e-9
        assert reserved.tenants_deployed > 0
        assert "CM+TAG" in result.table.to_text()


class TestFig10:
    def test_full_cm_is_best(self):
        points = fig10_ablation.run(**FAST)
        rates = {p.variant: p.metrics.bw_rejection_rate for p in points}
        assert rates["cm"] <= rates["ovoc"] + 1e-9
        assert rates["cm"] <= rates["cm-coloc-only"] + 1e-9


class TestFig11:
    def test_guarantee_achieved(self):
        points = fig11_wcs_guarantee.run(
            required_values=(0.5,), algorithms=("cm",), **FAST
        )
        (point,) = points
        # Multi-VM components must achieve at least ~the requirement.
        assert point.metrics.wcs.minimum >= 0.5 - 1e-9


class TestFig13:
    def test_series_shapes(self):
        result = fig13_enforcement.run(max_senders=4)
        for point in result.tag_points:
            assert point.x_to_z >= 450.0 - 1e-6
        hose_series = [p.x_to_z for p in result.hose_points[1:]]
        assert hose_series == sorted(hose_series, reverse=True)


class TestRuntime:
    def test_cm_subsecond_for_small_tenants(self):
        points = runtime_scaling.run(
            sizes=(25, 100), pods=1, algorithms=("cm", "ovoc")
        )
        cm = [p for p in points if p.algorithm == "cm"]
        assert all(p.seconds < 1.0 for p in cm)
        assert all(p.placed for p in cm)


class TestInference:
    def test_mean_ami_in_paper_ballpark(self):
        result = inference_ami.run(max_vms=40, max_applications=6, seed=1)
        assert result.applications > 0
        # Paper reports 0.54 on production traces; synthetic traces are
        # cleaner, so anything clearly above chance passes.
        assert result.mean > 0.3


class TestTemporal:
    def test_window_aware_admits_more(self, capsys):
        from repro.experiments import temporal_savings

        result = temporal_savings.run(windows=(4,), tenants=16)
        admitted = {
            r.trial.variant.name: r.payload["admitted"] for r in result
        }
        assert admitted["window"] >= admitted["peak"]
        assert all(r.payload["tenants"] == 16 for r in result)
        temporal_savings.present(result)
        out = capsys.readouterr().out
        assert "window-aware" in out and "peak-everywhere" in out


class TestCli:
    def test_list_command(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out

    def test_unknown_command(self, capsys):
        from repro.cli import main

        assert main(["nope"]) == 2

    def test_dispatch_fig4(self, capsys):
        from repro.cli import main

        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "web->logic" in out
