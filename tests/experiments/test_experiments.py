"""Shape tests for the registered scenarios (small, fast configurations).

Each test asserts the corresponding paper claim *qualitatively* at a
reduced scale; ``benchmarks/test_paper_claims.py`` checks every
registered claim at bench scale.
"""

from __future__ import annotations

from repro.engine import Engine, Variant, registry
from repro.placement.ha import HaPolicy

FAST = dict(pods=1, arrivals=120, seeds=(0,))


def run(name: str, **overrides):
    return Engine(n_jobs=1).run(registry.get(name).scenario.override(**overrides))


class TestFig1:
    def test_claims(self):
        (trial_result,) = run("fig01")
        payload = trial_result.payload
        assert payload["interactive_median"] > payload["batch_median"]
        assert len(payload["datacenter_rows"]) == 4


class TestFig4:
    def test_tag_holds_hose_fails(self):
        outcomes = {r.trial.variant.name: r.payload for r in run("fig04")}
        assert outcomes["tag"].web_guarantee_met
        assert not outcomes["hose"].web_guarantee_met


class TestTable1:
    def test_orderings(self, capsys):
        result = run("table1", pods=1, bmaxes=(800.0,), seeds=(1,))
        (trial_result,) = result
        reserved = trial_result.payload
        for level in ("server", "tor", "agg"):
            assert reserved.cm_voc[level] >= reserved.cm_tag[level] - 1e-9
        assert reserved.tenants_deployed > 0
        registry.get("table1").present(result)
        assert "CM+TAG" in capsys.readouterr().out


class TestFig10:
    def test_full_cm_is_best(self):
        result = run("fig10", **FAST)
        rates = {r.trial.variant.name: r.payload.bw_rejection_rate for r in result}
        assert rates["cm"] <= rates["ovoc"] + 1e-9
        assert rates["cm"] <= rates["cm-coloc-only"] + 1e-9


class TestFig11:
    def test_guarantee_achieved(self):
        variant = Variant("cm@50%", "cm", HaPolicy(required_wcs=0.5, laa_level=0))
        (trial_result,) = run("fig11", variants=(variant,), **FAST)
        # Multi-VM components must achieve at least ~the requirement.
        assert trial_result.payload.wcs.minimum >= 0.5 - 1e-9


class TestFig13:
    def test_series_shapes(self):
        result = run("fig13", xs=range(5))
        for r in result.by_variant("tag"):
            assert r.payload.x_to_z >= 450.0 - 1e-6
        hose_series = [r.payload.x_to_z for r in result.by_variant("hose")[1:]]
        assert hose_series == sorted(hose_series, reverse=True)


class TestRuntime:
    def test_cm_subsecond_for_small_tenants(self):
        result = run(
            "runtime", xs=(25, 100), pods=1, variants=(Variant("cm"), Variant("ovoc"))
        )
        cm = [r.payload for r in result.by_variant("cm")]
        assert all(p["seconds"] < 1.0 for p in cm)
        assert all(p["placed"] for p in cm)


class TestInference:
    def test_mean_ami_in_paper_ballpark(self):
        params = (("max_applications", 6), ("max_vms", 40), ("noise_fraction", 0.05))
        (trial_result,) = run("inference", seeds=(1,), params=params)
        assert trial_result.payload["applications"] > 0
        # Paper reports 0.54 on production traces; synthetic traces are
        # cleaner, so anything clearly above chance passes.
        assert trial_result.payload["mean"] > 0.3


class TestTemporal:
    def test_window_aware_admits_more(self, capsys):
        result = run("temporal", xs=(4,), params=(("tenants", 16), ("trough", 0.2)))
        admitted = {
            r.trial.variant.name: r.payload["admitted"] for r in result
        }
        assert admitted["window"] >= admitted["peak"]
        assert all(r.payload["tenants"] == 16 for r in result)
        registry.get("temporal").present(result)
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
