"""Tests for the cluster manager and the admission loops."""

from __future__ import annotations

import pytest

from repro.core.tag import Tag
from repro.placement.base import Placement, Rejection
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.simulation.arrivals import Arrival
from repro.simulation.cluster import (
    ClusterManager,
    run_arrival_departure,
    run_arrivals_until_full,
)
from repro.topology.ledger import Ledger


def _tenant(size: int, bw: float = 10.0) -> Tag:
    tag = Tag(f"t{size}")
    tag.add_component("app", size)
    tag.add_self_loop("app", bw)
    return tag


class TestClusterManager:
    def test_admit_updates_metrics(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        manager = ClusterManager(ledger, CloudMirrorPlacer(ledger))
        result = manager.admit(_tenant(4))
        assert isinstance(result, Placement)
        assert manager.metrics.tenants_total == 1
        assert manager.metrics.tenants_rejected == 0
        assert manager.metrics.vms_total == 4
        assert len(manager.active) == 1

    def test_rejection_counted(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        manager = ClusterManager(ledger, CloudMirrorPlacer(ledger))
        result = manager.admit(_tenant(10_000))
        assert isinstance(result, Rejection)
        assert manager.metrics.tenant_rejection_rate == 1.0
        assert manager.metrics.bw_rejection_rate == 1.0

    def test_depart_releases(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        manager = ClusterManager(ledger, CloudMirrorPlacer(ledger))
        result = manager.admit(_tenant(4))
        manager.depart(result.allocation)
        assert ledger.free_slots(small_datacenter.root) == 512
        assert manager.active == []

    def test_wcs_sampled_for_multi_vm_tiers(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        manager = ClusterManager(ledger, CloudMirrorPlacer(ledger))
        manager.admit(_tenant(8))
        assert len(manager.metrics.wcs.values) == 1

    def test_single_vm_tiers_excluded_from_wcs(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        manager = ClusterManager(ledger, CloudMirrorPlacer(ledger))
        tag = Tag("solo")
        tag.add_component("app", 1)
        manager.admit(tag)
        assert manager.metrics.wcs.values == []


class TestLoops:
    def test_arrival_departure_steady_state(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        manager = ClusterManager(ledger, CloudMirrorPlacer(ledger))
        pool = [_tenant(4)]
        # Arrivals at unit gaps, each staying half a gap: never more than
        # one tenant resident, so nothing can be rejected.
        arrivals = [Arrival(float(i), 0, 0.5) for i in range(50)]
        metrics = run_arrival_departure(manager, arrivals, pool)
        assert metrics.tenants_total == 50
        assert metrics.tenants_rejected == 0
        assert len(manager.active) <= 1

    def test_until_full_stops_at_first_rejection(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        manager = ClusterManager(ledger, CloudMirrorPlacer(ledger))
        pool = [_tenant(100)]
        accepted = run_arrivals_until_full(manager, pool, [0] * 20)
        # 512 slots / 100 -> 5 fit, the 6th rejects and stops the loop.
        assert len(accepted) == 5
        assert manager.metrics.tenants_total == 6

    def test_until_full_can_continue_past_rejections(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        manager = ClusterManager(ledger, CloudMirrorPlacer(ledger))
        pool = [_tenant(100)]
        accepted = run_arrivals_until_full(
            manager, pool, [0] * 20, stop_on_rejection=False
        )
        assert len(accepted) == 5
        assert manager.metrics.tenants_total == 20


class TestRunMetricsEmptyRun:
    """An untouched RunMetrics must survive the store round-trip."""

    def test_empty_run_serialization_round_trip(self):
        from repro.results import codec_for
        from repro.simulation.metrics import RunMetrics

        codec = codec_for("rejection")
        metrics = RunMetrics()
        assert codec.decode(codec.encode(metrics)) == metrics

    def test_empty_run_rates_and_means_are_zero(self):
        from repro.simulation.metrics import RunMetrics

        metrics = RunMetrics()
        assert metrics.tenant_rejection_rate == 0.0
        assert metrics.vm_rejection_rate == 0.0
        assert metrics.bw_rejection_rate == 0.0
        assert metrics.mean_slot_utilization == 0.0
        assert metrics.mean_bandwidth_utilization == 0.0
        assert metrics.wcs.mean == 0.0
        assert metrics.wcs.minimum == 0.0
        assert metrics.wcs.maximum == 0.0
