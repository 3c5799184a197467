"""The service loop: differential parity, paper-figure metrics, O(1) memory.

The load-bearing suite is differential: for every placer the repo ships,
:class:`~repro.simulation.service.ServiceLoop` at cohort sizes 1, 7 and
64 must produce the bit-identical accept/reject sequence, ledger
end-state *and* paper-figure :class:`RunMetrics` as a plain per-event
``place``/``release`` loop on the same arrival list.  The loop is a
performance restructuring — any decision drift is a bug, not a tradeoff.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.obs import core as obs
from repro.obs.trace import TraceRecorder
from repro.placement.base import Placement
from repro.placement.ha import HaPolicy, allocation_wcs
from repro.simulation.arrivals import poisson_arrivals
from repro.simulation.metrics import RunMetrics, UtilizationSample
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
TOTAL_SLOTS = three_level_tree(SPEC).total_slots


def _pool():
    return [
        three_tier(
            f"svc-{i}", (2 + i % 3, 2, 1 + i % 2), b1=150.0, b2=60.0, b3=30.0
        )
        for i in range(8)
    ]


def _giant_pool():
    """``_pool()`` plus a bandwidth-heavy tenant larger than the whole
    datacenter: the free-slot gate rejects every one of its arrivals,
    and under opportunistic HA each must still move the §4.5 demand
    estimate that decides between colocating and spreading."""
    giant = three_tier("giant", (TOTAL_SLOTS, 8, 8), b1=900.0, b2=900.0, b3=900.0)
    return _pool() + [giant]


def _events(pool, count=400, load=1.4, seed=11):
    return poisson_arrivals(pool, count, load, TOTAL_SLOTS, seed=seed)


def _per_event_run(placer_name, pool, events, ha=None):
    """The reference: ``place`` and ``release`` one event at a time.

    No gate, no cohorts, no hook: every arrival reaches the placer, and
    :class:`RunMetrics` is filled inline, one tenant at a time.
    """
    ledger = Ledger(three_level_tree(SPEC))
    placer = make_placer(placer_name, ledger, ha)
    topology = ledger.topology
    metrics = RunMetrics()
    decisions = []
    departures: list[tuple[float, int, object]] = []
    sequence = 0
    for arrival in events:
        while departures and departures[0][0] <= arrival.time:
            heapq.heappop(departures)[2].release()
        tag = pool[arrival.tenant_index]
        metrics.record_arrival(tag.size, tag.total_bandwidth)
        result = placer.place(tag)
        accepted = isinstance(result, Placement)
        decisions.append(accepted)
        if accepted:
            sequence += 1
            heapq.heappush(
                departures,
                (arrival.time + arrival.dwell, sequence, result.allocation),
            )
            try:
                per_tier = allocation_wcs(result.allocation, 0)
            except (AttributeError, ValueError):  # pipe allocations
                per_tier = {}
            for tier, wcs in per_tier.items():
                if tag.component(tier).size > 1:
                    metrics.wcs.add(wcs)
        else:
            metrics.record_rejection(tag.size, tag.total_bandwidth)
        metrics.utilization.append(
            UtilizationSample(
                1.0 - ledger.free_slots(topology.root) / topology.total_slots,
                ledger.server_bandwidth_fraction(),
            )
        )
    return decisions, ledger_fingerprint(ledger), metrics


def _accepts(into):
    """An ``on_decision`` hook noting, in order, whether each arrival
    was admitted."""
    return lambda tag, allocation: into.append(allocation is not None)


def _service_run(placer_name, pool, events, *, cohort, ha=None):
    ledger = Ledger(three_level_tree(SPEC))
    placer = make_placer(placer_name, ledger, ha)
    metrics = RunMetrics()
    record = metrics.recorder(ledger)
    decisions = []

    def on_decision(tag, allocation):
        decisions.append(allocation is not None)
        record(tag, allocation)

    loop = ServiceLoop(ledger, placer, pool, cohort=cohort, on_decision=on_decision)
    report = loop.run(events)
    return decisions, ledger_fingerprint(ledger), report, metrics


PARITY_CASES = [
    ("cm", None, _pool),
    ("ovoc", None, _pool),
    ("secondnet", None, _pool),
    ("cm", HaPolicy(required_wcs=0.5, laa_level=0), _pool),
    ("cm", HaPolicy(opportunistic=True, laa_level=0), _giant_pool),
]
PARITY_IDS = ["cm", "ovoc", "secondnet", "cm+ha", "cm+oppha"]


class TestDifferentialParity:
    @pytest.mark.parametrize("cohort", [1, 7, 64])
    @pytest.mark.parametrize(
        ("placer_name", "ha", "make_pool"), PARITY_CASES, ids=PARITY_IDS
    )
    def test_bit_identical_to_per_event_loop(
        self, placer_name, ha, make_pool, cohort
    ):
        pool = make_pool()
        events = _events(pool, load=2.0)
        expected, end_state, reference = _per_event_run(
            placer_name, pool, events, ha
        )
        decisions, fingerprint, report, metrics = _service_run(
            placer_name, pool, events, cohort=cohort, ha=ha
        )
        assert decisions == expected
        assert fingerprint == end_state
        # The paper-figure metrics, field for field: exact float sums,
        # every WCS value and every utilization sample.
        assert metrics == reference
        assert report["arrivals"] == len(events) == reference.tenants_total
        assert report["accepted"] == sum(expected)
        assert report["rejected"] == reference.tenants_rejected
        assert report["vms_total"] == reference.vms_total
        assert report["vms_rejected"] == reference.vms_rejected
        # Both sides must be exercised, or parity proves little.
        assert 0 < reference.tenants_rejected < reference.tenants_total
        assert reference.wcs.values

    def test_a_stream_resumes_across_runs(self):
        pool = _pool()
        events = _events(pool, load=1.8)
        expected, end_state, _ = _per_event_run("cm", pool, events)

        def run(*parts):
            ledger = Ledger(three_level_tree(SPEC))
            decisions = []
            loop = ServiceLoop(
                ledger,
                make_placer("cm", ledger),
                pool,
                cohort=16,
                on_decision=_accepts(decisions),
            )
            for part in parts:
                loop.run(part)
            live = [
                sorted(
                    (server.node_id, sorted(counts.items()))
                    for server, counts in allocation.iter_server_placements()
                )
                for allocation in loop.live()
            ]
            return decisions, ledger_fingerprint(ledger), live

        resumed = run(events[:150], events[150:])
        assert resumed[:2] == (expected, end_state)
        assert resumed[2] == run(events)[2]  # same residents, same order

    def test_live_is_the_resident_set_in_admission_order(self):
        pool = _pool()
        events = _events(pool)
        ledger = Ledger(three_level_tree(SPEC))
        admitted = []
        loop = ServiceLoop(
            ledger,
            make_placer("cm", ledger),
            pool,
            on_decision=lambda tag, allocation: admitted.append(allocation),
        )
        loop.run(events)
        live = loop.live()
        last = events[-1].time
        resident = [
            allocation
            for event, allocation in zip(events, admitted)
            if allocation is not None and event.time + event.dwell > last
        ]
        assert [id(a) for a in live] == [id(a) for a in resident]
        assert sum(a.tag.size for a in live) == (
            TOTAL_SLOTS - ledger.free_slots(ledger.topology.root)
        )

    def test_place_span_only_while_tracing(self):
        pool = _pool()
        events = _events(pool, count=100)
        ledger = Ledger(three_level_tree(SPEC))
        loop = ServiceLoop(ledger, make_placer("cm", ledger), pool)
        with TraceRecorder("service") as recorder:
            report = loop.run(events[:50])
        traced = recorder.export()["phases"]["place"]["count"]
        loop.run(events[50:])  # recorder gone: nothing more recorded
        assert 0 < traced <= report["arrivals"]
        assert recorder.export()["phases"]["place"]["count"] == traced


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
        expected, end_state, metrics = _per_event_run("cm", pool, events)
        return pool, events, expected, end_state, metrics

    @pytest.mark.parametrize("window", [5, 1024])
    @pytest.mark.parametrize("cohort", [1, 7, 64, 256])
    def test_bit_identical_to_per_event_loop(self, reference, cohort, window):
        pool, events, expected, end_state, metrics = reference
        ledger = Ledger(three_level_tree(SPEC))
        tap = _DecisionTap(make_placer("cm", ledger))
        heard: list[bool] = []
        loop = ServiceLoop(
            ledger,
            tap,
            pool,
            cohort=cohort,
            window=window,
            on_decision=_accepts(heard),
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
