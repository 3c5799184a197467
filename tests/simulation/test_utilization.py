"""Tests for the slot and bandwidth utilization that RunMetrics samples."""

from __future__ import annotations

import pytest


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
