"""Tests for pool persistence and utilization metrics."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.workloads.bing import bing_pool, pool_statistics
from repro.workloads.store import dump_pool, load_pool, pool_from_json, pool_to_json


class TestPoolStore:
    def test_round_trip_preserves_statistics(self):
        pool = bing_pool()[:20]
        rebuilt = pool_from_json(pool_to_json(pool))
        assert pool_statistics(rebuilt) == pool_statistics(pool)

    def test_round_trip_preserves_structure(self, three_tier_tag):
        rebuilt = pool_from_json(pool_to_json([three_tier_tag]))
        (tag,) = rebuilt
        assert tag.size == three_tier_tag.size
        assert tag.edge("web", "logic").send == 500.0

    def test_file_round_trip(self, tmp_path, storm_tag):
        path = tmp_path / "pool.json"
        dump_pool([storm_tag], path)
        (tag,) = load_pool(path)
        assert tag.num_tiers == 4

    def test_bad_document_rejected(self):
        with pytest.raises(SimulationError):
            pool_from_json("{}")
        with pytest.raises(SimulationError):
            pool_from_json("not json")


class TestUtilizationMetrics:
    def test_sampled_per_admission(self, small_datacenter):
        from repro.core.tag import Tag
        from repro.placement.cloudmirror import CloudMirrorPlacer
        from repro.simulation.arrivals import Arrival
        from repro.simulation.runner import run_rejections
        from repro.topology.ledger import Ledger

        ledger = Ledger(small_datacenter)
        pool = []
        for i in range(3):
            tag = Tag(f"t{i}")
            tag.add_component("app", 16)
            tag.add_self_loop("app", 100.0)
            pool.append(tag)
        arrivals = [Arrival(float(i), i, float("inf")) for i in range(3)]
        metrics = run_rejections(ledger, CloudMirrorPlacer(ledger), pool, arrivals)
        assert len(metrics.utilization) == 3
        fractions = [s.slot_fraction for s in metrics.utilization]
        assert fractions == sorted(fractions)  # fills monotonically
        assert fractions[-1] == pytest.approx(48 / 512)
        assert 0.0 <= metrics.mean_slot_utilization <= 1.0
        assert 0.0 <= metrics.mean_bandwidth_utilization <= 1.0

    def test_empty_metrics_safe(self):
        from repro.simulation.metrics import RunMetrics

        metrics = RunMetrics()
        assert metrics.mean_slot_utilization == 0.0
        assert metrics.mean_bandwidth_utilization == 0.0
