"""The service loop: differential parity and paper-figure metrics.

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

from repro.errors import SimulationError
from repro.obs import core as obs
from repro.obs.trace import TraceRecorder
from repro.placement.base import Placement
from repro.placement.ha import HaPolicy, allocation_wcs
from repro.simulation.arrivals import poisson_arrivals
from repro.simulation.metrics import RunMetrics, UtilizationSample
from repro.simulation.runner import PLACER_NAMES, make_placer
from repro.simulation.service import (
    ServiceCounts,
    ServiceLoop,
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
    ("cm-coloc-only", None, _pool),
    ("cm-balance-only", None, _pool),
    ("ovoc", None, _pool),
    ("secondnet", None, _pool),
    ("cm", HaPolicy(required_wcs=0.5, laa_level=0), _pool),
    ("ovoc", HaPolicy(required_wcs=0.5, laa_level=0), _pool),
    ("cm", HaPolicy(opportunistic=True, laa_level=0), _giant_pool),
]
PARITY_IDS = [
    "cm",
    "cm-coloc-only",
    "cm-balance-only",
    "ovoc",
    "secondnet",
    "cm+ha",
    "ovoc+ha",
    "cm+oppha",
]


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
                    (server_id, sorted(counts.items()))
                    for server_id, counts in allocation.iter_server_placements()
                )
                for allocation in loop.live()
            ]
            return decisions, ledger_fingerprint(ledger), live

        resumed = run(events[:150], events[150:])
        assert resumed[:2] == (expected, end_state)
        assert resumed[2] == run(events)[2]  # same residents, same order

    def test_a_resumed_run_reports_the_whole_stream(self):
        # The counts are cumulative: a stream fed in two parts reports
        # what the whole stream in one part does.  Only the cut itself
        # may end one cohort early.
        pool = _pool()
        events = _events(pool, load=1.8)

        def report(*parts):
            ledger = Ledger(three_level_tree(SPEC))
            loop = ServiceLoop(ledger, make_placer("cm", ledger), pool, cohort=16)
            for part in parts:
                result = loop.run(part)
            return result

        whole = report(events)
        resumed = report(events[:150], events[150:])
        assert 0 <= resumed.pop("cohorts") - whole.pop("cohorts") <= 1
        assert resumed.pop("max_cohort") <= whole.pop("max_cohort")
        assert resumed == whole
        assert whole["arrivals"] == len(events)

    def test_gate_rejections_reach_observe_and_nothing_else(self):
        pool = _giant_pool()
        events = _events(pool, count=200)
        ledger = Ledger(three_level_tree(SPEC))
        tap = _ObservingTap(make_placer("cm", ledger))
        decided = []
        loop = ServiceLoop(
            ledger,
            tap,
            pool,
            on_decision=lambda tag, allocation: decided.append((tag, allocation)),
        )
        report = loop.run(events)
        # Each arrival is either placed or observed, never both.
        assert len(tap.placed) + len(tap.observed) == report["arrivals"]
        giants = sum(1 for event in events if pool[event.tenant_index].name == "giant")
        assert 0 < giants <= len(tap.observed)
        assert "giant" not in {tag.name for tag in tap.placed}
        # The hook hears every arrival, in order; an observed one as a
        # rejection.
        assert [tag.name for tag, _ in decided] == [
            pool[event.tenant_index].name for event in events
        ]
        rejected = [tag for tag, allocation in decided if allocation is None]
        assert len(rejected) == report["rejected"]
        assert len(tap.observed) <= len(rejected)

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

    def test_place_seconds_sums_the_placer_calls_only(self, monkeypatch):
        # A clock that ticks one second per reading: each place() call
        # adds exactly one second, a gate rejection none, in every run.
        ticks = iter(range(10**6))
        monkeypatch.setattr(
            "repro.simulation.service.perf_counter", lambda: float(next(ticks))
        )
        pool = _giant_pool()
        events = _events(pool, count=200)
        ledger = Ledger(three_level_tree(SPEC))
        tap = _DecisionTap(make_placer("cm", ledger))
        loop = ServiceLoop(ledger, tap, pool)
        loop.run(events[:150])
        loop.run(events[150:])
        assert loop.place_seconds == len(tap.decisions) < len(events)

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


class _ObservingTap:
    """A placer that notes which tags it was asked to place and which
    it only heard of through ``observe``."""

    def __init__(self, placer):
        self._placer = placer
        self.placed: list = []
        self.observed: list = []

    def place(self, tag):
        self.placed.append(tag)
        return self._placer.place(tag)

    def observe(self, tag):
        self.observed.append(tag)
        self._placer.observe(tag)


def _reference_cohorts(events, accepted, cap):
    """Cohort count and largest cohort of a stream, from its definition:
    a new cohort starts at the first arrival, after ``cap`` arrivals, and
    wherever a departure falls due at or before an arrival."""
    due: list[float] = []
    cohorts = largest = batch = 0
    for event, ok in zip(events, accepted):
        departed = False
        while due and due[0] <= event.time:
            heapq.heappop(due)
            departed = True
        if batch == 0 or departed or batch == cap:
            cohorts += 1
            batch = 0
        batch += 1
        largest = max(largest, batch)
        if ok:
            heapq.heappush(due, event.time + event.dwell)
    return cohorts, largest


class TestCohorts:
    @pytest.mark.parametrize("cohort", [1, 7, 64, 10**6])
    def test_cohorts_are_the_departure_free_runs(self, cohort):
        pool = _pool()
        events = _events(pool, count=600, load=1.4)
        expected, _, _ = _per_event_run("cm", pool, events)
        ledger = Ledger(three_level_tree(SPEC))
        loop = ServiceLoop(ledger, make_placer("cm", ledger), pool, cohort=cohort)
        report = loop.run(events)
        cohorts, largest = _reference_cohorts(events, expected, cohort)
        assert (report["cohorts"], report["max_cohort"]) == (cohorts, largest)
        assert largest <= cohort
        assert report["cohorts"] < len(events) or cohort == 1


class TestServiceCounts:
    def test_report_carries_every_count_and_the_rate(self):
        report = ServiceCounts().report()
        assert set(report) == {
            "arrivals",
            "accepted",
            "rejected",
            "departures",
            "vms_total",
            "vms_rejected",
            "bw_total",
            "bw_rejected",
            "cohorts",
            "max_cohort",
            "rejection_rate",
        }
        assert report["rejection_rate"] == 0.0  # no arrivals, no division

    def test_rejection_rate_counts_tenants_not_vms(self):
        counts = ServiceCounts(arrivals=8, accepted=6, rejected=2, vms_total=40)
        counts.vms_rejected = 30
        assert counts.report()["rejection_rate"] == 0.25


class TestOverloadParity:
    """Load 100: the gate rejects nearly everything, in long runs.

    The suite above stops at load 2.0, where a run of gate rejections is
    rarely longer than a handful; here runs span whole cohorts, which is
    what the tracked departure time has to survive.
    """

    COUNT = 8000

    @pytest.fixture(scope="class", params=PLACER_NAMES)
    def reference(self, request):
        # Every placer: the gate claims each one's first check is the
        # same root free-slot comparison, so none may admit what it gates.
        pool = _pool()
        events = _events(pool, count=self.COUNT, load=100.0, seed=5)
        expected, end_state, metrics = _per_event_run(request.param, pool, events)
        return request.param, pool, events, expected, end_state, metrics

    @pytest.mark.parametrize("cohort", [1, 7, 64, 256])
    def test_bit_identical_to_per_event_loop(self, reference, cohort):
        placer_name, pool, events, expected, end_state, metrics = reference
        ledger = Ledger(three_level_tree(SPEC))
        tap = _DecisionTap(make_placer(placer_name, ledger))
        heard: list[bool] = []
        loop = ServiceLoop(
            ledger, tap, pool, cohort=cohort, on_decision=_accepts(heard)
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
        assert report["max_cohort"] <= cohort
        if cohort == 1:
            assert report["cohorts"] == self.COUNT


class TestStreamingMemory:
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


class TestServiceLoopValidation:
    def test_rejects_bad_parameters(self):
        ledger = Ledger(three_level_tree(SPEC))
        placer = make_placer("cm", ledger)
        with pytest.raises(SimulationError):
            ServiceLoop(ledger, placer, _pool(), cohort=0)
        with pytest.raises(SimulationError):
            ServiceLoop(ledger, placer, [])
