"""Scenario dataclass: grid expansion, overrides, fingerprints."""

from __future__ import annotations

import pytest

from repro.engine import Scenario, TopologyCase, Trial, TrialResult, Variant
from repro.errors import EngineError
from repro.placement.ha import HaPolicy
from repro.simulation.metrics import RunMetrics
from repro.topology.builder import DatacenterSpec


def _scenario(**overrides) -> Scenario:
    base = dict(
        name="demo",
        title="demo scenario",
        kind="rejection",
        variants=(Variant("cm"), Variant("ovoc")),
        loads=(0.3, 0.7),
        bmaxes=(400.0, 800.0),
        seeds=(0, 1),
    )
    base.update(overrides)
    return Scenario(**base)


class TestExpansion:
    def test_trial_count_matches_grid(self):
        scenario = _scenario()
        trials = scenario.expand()
        assert len(trials) == 2 * 2 * 2 * 2

    def test_grid_order_is_load_bmax_variant_seed(self):
        trials = _scenario().expand()
        # Outermost axis changes slowest: loads, then bmaxes, then
        # variants, then seeds.
        assert [t.seed for t in trials[:2]] == [0, 1]
        assert trials[0].variant.name == "cm" and trials[2].variant.name == "ovoc"
        assert trials[0].bmax == 400.0 and trials[4].bmax == 800.0
        assert trials[0].load == 0.3 and trials[8].load == 0.7
        assert [t.index for t in trials] == list(range(16))

    def test_default_topology_from_pods(self):
        scenario = _scenario(pods=3)
        (case,) = scenario.topology_cases()
        assert case.spec.pods == 3

    def test_explicit_topology_axis(self):
        cases = (
            TopologyCase("a", DatacenterSpec(pods=1)),
            TopologyCase("b", DatacenterSpec(pods=2)),
        )
        trials = _scenario(topologies=cases).expand()
        assert len(trials) == 32
        assert trials[0].topology.label == "a"
        assert trials[16].topology.label == "b"

    def test_empty_axis_rejected(self):
        with pytest.raises(EngineError):
            _scenario(loads=())
        with pytest.raises(EngineError):
            _scenario(variants=())


class TestOverride:
    def test_axis_override_coerces_tuples(self):
        scenario = _scenario().override(seeds=range(3), loads=[0.5])
        assert scenario.seeds == (0, 1, 2)
        assert scenario.loads == (0.5,)

    def test_none_overrides_ignored(self):
        scenario = _scenario()
        assert scenario.override(seeds=None).seeds == scenario.seeds

    def test_pods_override_rewrites_topology_axis(self):
        cases = (
            TopologyCase("16x", DatacenterSpec(pods=2, tor_oversub=4.0, agg_oversub=4.0)),
            TopologyCase("64x", DatacenterSpec(pods=2, tor_oversub=8.0, agg_oversub=8.0)),
        )
        scenario = _scenario(topologies=cases).override(pods=1)
        assert all(case.spec.pods == 1 for case in scenario.topologies)
        # Oversubscription (the axis itself) is preserved.
        assert scenario.topologies[1].spec.tor_oversub == 8.0

    def test_pods_does_not_clobber_explicit_topologies_override(self):
        original = (
            TopologyCase("16x", DatacenterSpec(pods=2, tor_oversub=4.0, agg_oversub=4.0)),
        )
        custom = (
            TopologyCase("64x", DatacenterSpec(pods=4, tor_oversub=8.0, agg_oversub=8.0)),
        )
        scenario = _scenario(topologies=original).override(pods=4, topologies=custom)
        assert scenario.topologies == custom

    def test_original_untouched(self):
        scenario = _scenario()
        scenario.override(seeds=(9,))
        assert scenario.seeds == (0, 1)

    def test_param_lookup(self):
        trial = _scenario(params=(("guarantee", 450.0),)).expand()[0]
        assert trial.param("guarantee") == 450.0
        assert trial.param("missing", "x") == "x"


class TestVariant:
    def test_placer_defaults_to_name(self):
        assert Variant("cm").placer == "cm"
        assert Variant("cm+ha", "cm").placer == "cm"

    def test_nameless_variant_rejected(self):
        with pytest.raises(EngineError):
            Variant("")

    def test_ha_round_trips(self):
        variant = Variant("cm+ha", "cm", HaPolicy(required_wcs=0.5))
        assert variant.ha.required_wcs == 0.5


class TestFingerprint:
    def _trial(self) -> Trial:
        return _scenario().expand()[0]

    def test_excludes_wall_clock(self):
        metrics_a, metrics_b = RunMetrics(), RunMetrics()
        metrics_a.record_arrival(4, 100.0)
        metrics_b.record_arrival(4, 100.0)
        metrics_a.runtime_seconds = 1.23
        metrics_b.runtime_seconds = 9.87
        first = TrialResult(self._trial(), metrics_a, elapsed=0.5)
        second = TrialResult(self._trial(), metrics_b, elapsed=5.0)
        assert first.fingerprint() == second.fingerprint()

    def test_detects_metric_differences(self):
        metrics_a, metrics_b = RunMetrics(), RunMetrics()
        metrics_a.record_arrival(4, 100.0)
        metrics_b.record_arrival(4, 100.0)
        metrics_b.record_rejection(4, 100.0)
        first = TrialResult(self._trial(), metrics_a, elapsed=0.0)
        second = TrialResult(self._trial(), metrics_b, elapsed=0.0)
        assert first.fingerprint() != second.fingerprint()
