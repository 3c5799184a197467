"""The paper-figure metrics: ``RunMetrics.recorder`` on the service loop."""

from __future__ import annotations

import math

from repro.core.tag import Tag
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.placement.secondnet import SecondNetPlacer
from repro.results import codec_for
from repro.simulation.arrivals import Arrival
from repro.simulation.metrics import RunMetrics
from repro.simulation.runner import run_rejections
from repro.simulation.service import ServiceLoop
from repro.topology.ledger import Ledger


def _tenant(size: int, bw: float = 10.0) -> Tag:
    tag = Tag(f"t{size}")
    tag.add_component("app", size)
    tag.add_self_loop("app", bw)
    return tag


def _pipe_tenant(size: int = 6) -> Tag:
    tag = Tag("t")
    tag.add_component("a", size // 2)
    tag.add_component("b", size - size // 2)
    tag.add_edge("a", "b", 40.0, 40.0)
    return tag


def _recorded(ledger, placer, pool):
    """A loop over ``pool`` whose decisions fill a fresh RunMetrics."""
    metrics = RunMetrics()
    loop = ServiceLoop(
        ledger, placer, pool, on_decision=metrics.recorder(ledger)
    )
    return loop, metrics


def _stay(index: int, time: float = 0.0) -> list[Arrival]:
    """One arrival of ``pool[index]`` that never leaves."""
    return [Arrival(time, index, math.inf)]


class TestRecorder:
    def test_admission_counted(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        loop, metrics = _recorded(ledger, CloudMirrorPlacer(ledger), [_tenant(4)])
        loop.run(_stay(0))
        assert metrics.tenants_total == 1
        assert metrics.tenants_rejected == 0
        assert metrics.vms_total == 4
        assert len(loop.live()) == 1

    def test_gated_rejection_counted(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        loop, metrics = _recorded(
            ledger, CloudMirrorPlacer(ledger), [_tenant(10_000)]
        )
        loop.run(_stay(0))
        assert metrics.tenant_rejection_rate == 1.0
        assert metrics.bw_rejection_rate == 1.0
        assert len(metrics.utilization) == 1  # gated decisions sample too

    def test_departure_releases(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        loop, metrics = _recorded(
            ledger, CloudMirrorPlacer(ledger), [_tenant(4), _tenant(10_000)]
        )
        loop.run([Arrival(0.0, 0, 1.0), Arrival(2.0, 1, 1.0)])
        assert ledger.free_slots(small_datacenter.root) == 512
        assert loop.live() == []
        assert metrics.tenants_rejected == 1

    def test_wcs_sampled_for_multi_vm_tiers(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        loop, metrics = _recorded(ledger, CloudMirrorPlacer(ledger), [_tenant(8)])
        loop.run(_stay(0))
        assert len(metrics.wcs.values) == 1

    def test_single_vm_tiers_excluded_from_wcs(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        tag = Tag("solo")
        tag.add_component("app", 1)
        loop, metrics = _recorded(ledger, CloudMirrorPlacer(ledger), [tag])
        loop.run(_stay(0))
        assert metrics.tenants_total == 1
        assert metrics.wcs.values == []


class TestSecondNetPipes:
    def test_admit_and_depart(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        loop, metrics = _recorded(ledger, SecondNetPlacer(ledger), [_pipe_tenant()])
        loop.run([Arrival(0.0, 0, 1.0)])
        assert metrics.tenants_total == 1 and len(loop.live()) == 1
        loop.run([Arrival(2.0, 0, 1.0)])  # the first leaves before this one
        assert [a.tag.size for a in loop.live()] == [6]
        assert ledger.free_slots(ledger.topology.root) == 512 - 6

    def test_wcs_sampled_from_pipe_allocation(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        loop, metrics = _recorded(
            ledger, SecondNetPlacer(ledger), [_pipe_tenant(8)]
        )
        loop.run(_stay(0))
        # PipeAllocation exposes tier_spread, so WCS sampling works.
        assert len(metrics.wcs.values) == 2

    def test_utilization_sampled(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        loop, metrics = _recorded(ledger, SecondNetPlacer(ledger), [_pipe_tenant()])
        loop.run(_stay(0))
        assert len(metrics.utilization) == 1
        assert metrics.utilization[0].slot_fraction > 0.0


class TestRunRejections:
    def test_steady_state_never_rejects(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        # Arrivals at unit gaps, each staying half a gap: never more than
        # one tenant resident, so nothing can be rejected.
        arrivals = [Arrival(float(i), 0, 0.5) for i in range(50)]
        metrics = run_rejections(
            ledger, CloudMirrorPlacer(ledger), [_tenant(4)], arrivals
        )
        assert metrics.tenants_total == 50
        assert metrics.tenants_rejected == 0
        assert len(metrics.utilization) == 50
        assert ledger.free_slots(small_datacenter.root) >= 512 - 4


class TestRunMetricsEmptyRun:
    """An untouched RunMetrics must survive the store round-trip."""

    def test_empty_run_serialization_round_trip(self):
        codec = codec_for("rejection")
        metrics = RunMetrics()
        assert codec.decode(codec.encode(metrics)) == metrics

    def test_empty_run_rates_and_means_are_zero(self):
        metrics = RunMetrics()
        assert metrics.tenant_rejection_rate == 0.0
        assert metrics.vm_rejection_rate == 0.0
        assert metrics.bw_rejection_rate == 0.0
        assert metrics.mean_slot_utilization == 0.0
        assert metrics.mean_bandwidth_utilization == 0.0
        assert metrics.wcs.mean == 0.0
        assert metrics.wcs.minimum == 0.0
        assert metrics.wcs.maximum == 0.0
