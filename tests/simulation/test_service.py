"""The cohort-batched service loop: differential parity and O(1) memory.

The load-bearing suite is differential: for every placer the repo ships,
:class:`~repro.simulation.service.ServiceLoop` at cohort size 1 *and* at
a large cohort must produce the bit-identical accept/reject sequence and
ledger end-state as the per-event :class:`ClusterManager` loop on the
same arrival list.  The loop is a performance restructuring — any
decision drift is a bug, not a tradeoff.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.obs import core as obs
from repro.placement.ha import HaPolicy
from repro.placement.base import Placement, Rejection
from repro.simulation.arrivals import poisson_arrivals
from repro.simulation.cluster import ClusterManager, run_arrival_departure
from repro.simulation.runner import make_placer
from repro.simulation.service import (
    LatencyHistogram,
    RejectionWindow,
    ServiceLoop,
    StreamingServiceMetrics,
    ledger_fingerprint,
)
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Ledger
from repro.workloads.patterns import three_tier

SPEC = DatacenterSpec(servers_per_rack=8, racks_per_pod=4, pods=2)


def _pool():
    return [
        three_tier(
            f"svc-{i}", (2 + i % 3, 2, 1 + i % 2), b1=150.0, b2=60.0, b3=30.0
        )
        for i in range(8)
    ]


def _events(pool, count=400, load=1.4, seed=11):
    topology = three_level_tree(SPEC)
    return poisson_arrivals(pool, count, load, topology.total_slots, seed=seed)


def _per_event_run(placer_name, pool, events, ha=None):
    """The reference: ClusterManager driven one event at a time."""
    ledger = Ledger(three_level_tree(SPEC))
    manager = ClusterManager(
        ledger, make_placer(placer_name, ledger, ha), collect_wcs=False
    )
    decisions = []
    departures: list[tuple[float, int, object]] = []
    sequence = 0
    for arrival in events:
        while departures and departures[0][0] <= arrival.time:
            manager.depart(heapq.heappop(departures)[2])
        result = manager.admit(pool[arrival.tenant_index])
        accepted = not isinstance(result, Rejection)
        decisions.append(accepted)
        if accepted:
            sequence += 1
            heapq.heappush(
                departures,
                (arrival.time + arrival.dwell, sequence, result.allocation),
            )
    return decisions, ledger_fingerprint(ledger), manager.metrics


def _service_run(placer_name, pool, events, *, cohort, ha=None):
    ledger = Ledger(three_level_tree(SPEC))
    placer = make_placer(placer_name, ledger, ha)
    decisions = []
    loop = ServiceLoop(
        ledger, placer, pool, cohort=cohort, on_decision=decisions.append
    )
    report = loop.run(events)
    return decisions, ledger_fingerprint(ledger), report


class TestDifferentialParity:
    @pytest.mark.parametrize("placer_name", ["cm", "ovoc", "secondnet"])
    @pytest.mark.parametrize("cohort", [1, 64])
    def test_bit_identical_to_per_event_loop(self, placer_name, cohort):
        pool = _pool()
        events = _events(pool)
        expected, end_state, _ = _per_event_run(placer_name, pool, events)
        decisions, fingerprint, report = _service_run(
            placer_name, pool, events, cohort=cohort
        )
        assert decisions == expected
        assert fingerprint == end_state
        assert report["arrivals"] == len(events)
        assert report["accepted"] == sum(expected)
        assert report["rejected"] == len(expected) - sum(expected)

    @pytest.mark.parametrize("cohort", [1, 64])
    def test_ha_policy_parity(self, cohort):
        ha = HaPolicy(required_wcs=0.5, laa_level=0)
        pool = _pool()
        events = _events(pool)
        expected, end_state, _ = _per_event_run("cm", pool, events, ha=ha)
        decisions, fingerprint, _ = _service_run(
            "cm", pool, events, cohort=cohort, ha=ha
        )
        assert decisions == expected
        assert fingerprint == end_state

    def test_counts_match_reference_metrics(self):
        pool = _pool()
        events = _events(pool)
        _, _, reference = _per_event_run("cm", pool, events)
        _, _, report = _service_run("cm", pool, events, cohort=32)
        assert report["arrivals"] == reference.tenants_total
        assert report["rejected"] == reference.tenants_rejected
        assert report["vms_total"] == reference.vms_total
        assert report["vms_rejected"] == reference.vms_rejected
        assert report["bw_total"] == pytest.approx(reference.bw_total)
        assert report["bw_rejected"] == pytest.approx(reference.bw_rejected)
        assert report["rejection_rate"] == pytest.approx(
            reference.tenant_rejection_rate
        )


class _DecisionTap:
    """A placer that also notes, in order, what it decided."""

    def __init__(self, placer):
        self._place = placer.place
        self.decisions: list[bool] = []

    def place(self, tag):
        result = self._place(tag)
        self.decisions.append(isinstance(result, Placement))
        return result


class TestOverloadParity:
    """Load 100: the gate rejects nearly everything, in long runs.

    The suite above stops at load 2.0, where a run of gate rejections is
    rarely longer than a handful; here runs span whole cohorts and wrap
    the rejection window many times over, which is what the run-length
    window call and the tracked departure time have to survive.
    """

    COUNT = 8000

    @pytest.fixture(scope="class")
    def reference(self):
        pool = _pool()
        events = _events(pool, count=self.COUNT, load=100.0, seed=5)
        ledger = Ledger(three_level_tree(SPEC))
        tap = _DecisionTap(make_placer("cm", ledger))
        manager = ClusterManager(ledger, tap, collect_wcs=False)
        metrics = run_arrival_departure(manager, events, pool)
        return pool, events, tap.decisions, ledger_fingerprint(ledger), metrics

    @pytest.mark.parametrize("window", [5, 1024])
    @pytest.mark.parametrize("cohort", [1, 7, 64, 256])
    def test_bit_identical_to_run_arrival_departure(self, reference, cohort, window):
        pool, events, expected, end_state, metrics = reference
        ledger = Ledger(three_level_tree(SPEC))
        tap = _DecisionTap(make_placer("cm", ledger))
        heard: list[bool] = []
        loop = ServiceLoop(
            ledger, tap, pool, cohort=cohort, window=window, on_decision=heard.append
        )
        report = loop.run(iter(events))

        assert heard == expected  # every arrival, in arrival order
        # Overload: the gate answers for at least 95 % of the arrivals,
        # and never for one the placer would have admitted.
        assert len(tap.decisions) <= 0.05 * self.COUNT
        assert sum(tap.decisions) == sum(expected)
        assert ledger_fingerprint(ledger) == end_state

        accepted = sum(expected)
        sizes = [pool[e.tenant_index].size for e in events]
        bandwidths = [pool[e.tenant_index].total_bandwidth for e in events]
        assert report["arrivals"] == self.COUNT == metrics.tenants_total
        assert report["accepted"] == accepted
        assert report["rejected"] == self.COUNT - accepted == metrics.tenants_rejected
        assert report["vms_total"] == sum(sizes) == metrics.vms_total
        assert report["vms_rejected"] == metrics.vms_rejected
        # This pool's bandwidths are small integers: float sums are exact
        # in any order, so per-cohort accumulation may not move a bit.
        assert all(b == int(b) for b in bandwidths)
        assert report["bw_total"] == sum(bandwidths) == metrics.bw_total
        assert report["bw_rejected"] == metrics.bw_rejected
        assert report["rejection_rate"] == metrics.tenant_rejection_rate
        # Admitted tenants whose dwell ended before the last arrival.
        last = events[-1].time
        assert report["departures"] == sum(
            1
            for event, ok in zip(events, expected)
            if ok and event.time + event.dwell <= last
        )
        tail = expected[-window:]
        assert report["windowed_rejection_rate"] == tail.count(False) / len(tail)
        # The ring itself, not just its rate: a run handed over late (after
        # the placer decision that ended it) would shift the zeros.
        replayed = RejectionWindow(window)
        for ok in expected:
            replayed.add(not ok)
        for slot in RejectionWindow.__slots__:
            assert getattr(loop.metrics.window, slot) == getattr(replayed, slot), slot
        assert report["max_cohort"] <= cohort
        if cohort == 1:
            assert report["cohorts"] == self.COUNT


class TestStreamingMemory:
    def _footprint_after(self, count):
        pool = _pool()
        events = _events(pool, count=count, load=2.0)
        ledger = Ledger(three_level_tree(SPEC))
        loop = ServiceLoop(
            ledger, make_placer("cm", ledger), pool, cohort=32, heartbeat=128
        )
        loop.run(events)
        return loop.metrics.footprint()

    def test_footprint_independent_of_event_count(self):
        # The O(1)-memory claim: a 10x longer run stores not one more
        # scalar than a short one.
        assert self._footprint_after(200) == self._footprint_after(2000)

    def test_metrics_gauges_exported(self):
        pool = _pool()
        events = _events(pool, count=300)
        with obs.enabled_scope() as counters:
            ledger = Ledger(three_level_tree(SPEC))
            loop = ServiceLoop(
                ledger, make_placer("cm", ledger), pool, cohort=16, heartbeat=64
            )
            loop.run(events)
            assert counters["service.metrics_entries"] == loop.metrics.footprint()
            # The persistent index footprint is O(topology), not O(events).
            assert counters["service.index_entries"] > 0

    def test_index_is_built_once_per_level(self):
        pool = _pool()
        events = _events(pool, count=400, load=1.8)
        with obs.enabled_scope() as counters:
            ledger = Ledger(three_level_tree(SPEC))
            loop = ServiceLoop(ledger, make_placer("cm", ledger), pool, cohort=32)
            loop.run(events)
            # Dirty-bit repair, never a rebuild: one build per level
            # across hundreds of arrivals and departures.
            assert counters["candidates.level_builds"] <= ledger.topology.num_levels

    def test_report_on_empty_stream(self):
        pool = _pool()
        ledger = Ledger(three_level_tree(SPEC))
        loop = ServiceLoop(ledger, make_placer("cm", ledger), pool)
        report = loop.run([])
        assert report["arrivals"] == 0
        assert report["rejection_rate"] == 0.0
        assert report["timing"]["p50_place_ms"] == 0.0


class TestServiceLoopValidation:
    def test_rejects_bad_parameters(self):
        ledger = Ledger(three_level_tree(SPEC))
        placer = make_placer("cm", ledger)
        with pytest.raises(SimulationError):
            ServiceLoop(ledger, placer, _pool(), cohort=0)
        with pytest.raises(SimulationError):
            ServiceLoop(ledger, placer, _pool(), heartbeat=0)
        with pytest.raises(SimulationError):
            ServiceLoop(ledger, placer, [])


class TestLatencyHistogram:
    def test_quantiles_track_inserted_scale(self):
        histogram = LatencyHistogram()
        for _ in range(95):
            histogram.add(1e-4)
        for _ in range(5):
            histogram.add(1e-1)
        assert histogram.quantile(0.5) == pytest.approx(1e-4, rel=0.5)
        assert histogram.quantile(0.99) == pytest.approx(1e-1, rel=0.5)
        assert histogram.mean == pytest.approx((95 * 1e-4 + 5 * 1e-1) / 100)

    def test_under_and_overflow_buckets(self):
        histogram = LatencyHistogram(buckets=8, lo=1e-3, hi=1.0)
        histogram.add(1e-9)
        histogram.add(50.0)
        assert histogram.counts[0] == 1
        assert histogram.counts[-1] == 1
        assert histogram.quantile(0.0) == pytest.approx(5e-4)
        assert histogram.quantile(1.0) == 1.0

    def test_empty_and_validation(self):
        histogram = LatencyHistogram()
        assert histogram.quantile(0.5) == 0.0
        assert histogram.mean == 0.0
        with pytest.raises(SimulationError):
            histogram.quantile(1.5)
        with pytest.raises(SimulationError):
            LatencyHistogram(buckets=2)

    def test_footprint_constant(self):
        histogram = LatencyHistogram()
        before = histogram.footprint()
        for i in range(10_000):
            histogram.add(1e-6 * (i + 1))
        assert histogram.footprint() == before


class TestRejectionWindow:
    def test_windowed_rate_forgets_old_decisions(self):
        window = RejectionWindow(size=4)
        for _ in range(4):
            window.add(True)
        assert window.rate == 1.0
        for _ in range(4):
            window.add(False)
        assert window.rate == 0.0
        window.add(True)
        assert window.rate == 0.25

    def test_partial_fill_and_validation(self):
        window = RejectionWindow(size=8)
        assert window.rate == 0.0
        window.add(True)
        window.add(False)
        assert window.filled == 2
        assert window.rate == 0.5
        with pytest.raises(SimulationError):
            RejectionWindow(size=0)


    @settings(max_examples=300, deadline=None)
    @given(
        size=st.integers(1, 17),
        prefix=st.lists(st.booleans(), max_size=60),
        data=st.data(),
    )
    def test_a_run_of_rejections_is_that_many_adds(self, size, prefix, data):
        # Sizes 1..17 and n in 0..3*size reach the unfilled ring, the
        # wrap-around and n >= size from every prefix state.
        n = data.draw(st.integers(0, 3 * size))
        one_by_one = RejectionWindow(size)
        at_once = RejectionWindow(size)
        for rejected in prefix:
            one_by_one.add(rejected)
            at_once.add(rejected)
        for _ in range(n):
            one_by_one.add(True)
        at_once.add_rejections(n)
        for slot in RejectionWindow.__slots__:
            assert getattr(at_once, slot) == getattr(one_by_one, slot), slot
        assert at_once.rate == one_by_one.rate


class TestStreamingServiceMetrics:
    def test_running_utilization_mean(self):
        metrics = StreamingServiceMetrics()
        metrics.sample_utilization(0.2, 0.1)
        metrics.sample_utilization(0.6, 0.3)
        assert metrics.mean_slot_utilization == pytest.approx(0.4)
        assert metrics.mean_bw_utilization == pytest.approx(0.2)
        assert metrics.last_slot_utilization == 0.6
        assert metrics.util_samples == 2
