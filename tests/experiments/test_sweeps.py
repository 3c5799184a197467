"""Small-scale smoke tests of the sweep scenarios (Figs. 7-9, 12)."""

from __future__ import annotations

from repro.engine import Engine, registry

TINY = dict(pods=1, arrivals=80, seeds=(0,))


def run(name: str, **overrides):
    entry = registry.get(name)
    return entry, Engine(n_jobs=1).run(entry.scenario.override(**TINY, **overrides))


class TestFig7:
    def test_single_point_sweep(self, capsys):
        entry, result = run("fig07", loads=(0.5,), bmaxes=(600.0,))
        assert [r.trial.variant.name for r in result] == ["cm", "ovoc"]
        assert all(0.0 <= r.payload.bw_rejection_rate <= 1.0 for r in result)
        entry.present(result)
        assert "600" in capsys.readouterr().out


class TestFig8:
    def test_two_loads(self, capsys):
        entry, result = run("fig08", loads=(0.3, 0.8))
        assert len(result) == 4
        entry.present(result)
        chart = capsys.readouterr().out.split("Fig. 8 — rejected bandwidth")[1]
        assert "cm" in chart and "ovoc" in chart


class TestFig9:
    def test_single_ratio(self, capsys):
        entry = registry.get("fig09")
        (case,) = [c for c in entry.scenario.topologies if c.label == "32x"]
        # Two steps: pods rewrites the topology axis only when it is not
        # replaced in the same override.
        scenario = entry.scenario.override(topologies=(case,)).override(**TINY)
        result = Engine(n_jobs=1).run(scenario)
        assert {r.trial.topology.spec.pods for r in result} == {1}
        assert {r.trial.topology.spec.total_oversubscription for r in result} == {32}
        entry.present(result)
        assert "32x" in capsys.readouterr().out


class TestFig12:
    def test_three_modes(self):
        _, result = run("fig12", bmaxes=(800.0,))
        assert [r.trial.variant.name for r in result] == ["cm", "cm+ha", "cm+oppha"]
        ha = result.results[1].payload
        # The guarantee mode keeps its floor even at tiny scale.
        if ha.wcs.values:
            assert ha.wcs.minimum >= 0.5 - 1e-9
