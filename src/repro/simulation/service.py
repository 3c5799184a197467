"""Million-event service loop: cohort-batched admission, O(1) metrics.

The ROADMAP's online-service scenario streams millions of tenant
arrivals and departures through one shared ledger.  The per-event loop
(:func:`repro.simulation.cluster.run_arrival_departure`) was built for
10k-arrival batches and pays, per admission: an ``obs.timed`` context
manager, several :class:`~repro.simulation.metrics.RunMetrics`
attribute bumps, a WCS sample, and — dominating everything on real
topologies — an O(servers) bandwidth-utilization sweep.  Its metrics
are unbounded Python lists, so a long run's memory grows with the event
count.

:class:`ServiceLoop` restructures the loop around **cohorts** — maximal
runs of consecutive arrivals with no departure due between them — while
keeping every placement decision *bit-identical* to the sequential
per-event loop (the differential suite in ``tests/simulation`` pins
accept/reject sequences and ledger end-state for all four placers):

* decisions stay strictly sequential — a cohort changes *when the
  bookkeeping happens*, never the ledger state a placement sees;
* one fused feasibility pre-pass per cohort: a running root free-slot
  count screens arrivals that cannot fit before the placer is invoked
  (any correct placer must reject a tenant with more VMs than the
  datacenter has free slots, so the short-circuit is decision-exact);
* per-tier utilization is sampled at heartbeat boundaries instead of
  after every admission, amortizing the O(servers) sweep to ~zero;
* metric accounting accumulates in locals and flushes once per cohort.

The placement scan itself stays O(1)-amortized across events because
the :class:`~repro.placement.candidates.CandidateIndex` attached to the
ledger persists for the whole run: arrivals and departures repair its
sorted orders in place through the dirty-bit funnel, and the per-tag
compile caches (:mod:`repro.placement.state`) mean a recurring pool
tenant never re-derives its requirement closure.

Metrics are *streaming*: a fixed-bucket log histogram for time-to-place
quantiles, a fixed ring for the windowed rejection rate, and running
means for utilization — O(1) memory at any event count, which the loop
exports as the ``service.metrics_entries`` obs gauge so a test can
assert the footprint is independent of run length.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from time import perf_counter
from typing import Callable, Iterable, Sequence

from repro.core.tag import Tag
from repro.errors import SimulationError
from repro.obs import core as _obs
from repro.placement.base import Placement, Rejection
from repro.simulation.arrivals import Arrival

__all__ = [
    "LatencyHistogram",
    "RejectionWindow",
    "ServiceLoop",
    "StreamingServiceMetrics",
    "ledger_fingerprint",
]


class LatencyHistogram:
    """Fixed-size log-bucket accumulator for per-event latencies.

    ``buckets`` geometric buckets span ``lo``..``hi`` seconds with an
    underflow bucket below ``lo`` and an overflow bucket above ``hi`` —
    about 9 buckets per decade at the defaults, i.e. ~30% quantile
    resolution, plenty for p50/p99 monitoring.  Memory is the bucket
    array, regardless of how many samples flow through.
    """

    __slots__ = ("counts", "count", "total", "_lo", "_hi", "_scale", "_edges")

    def __init__(
        self, *, buckets: int = 84, lo: float = 1e-7, hi: float = 1e2
    ) -> None:
        if buckets < 3 or not 0 < lo < hi:
            raise SimulationError("need >= 3 buckets and 0 < lo < hi")
        self.counts = [0] * buckets
        self.count = 0
        self.total = 0.0
        self._lo = lo
        self._hi = hi
        # interior buckets map log-uniformly onto lo..hi
        self._scale = (buckets - 2) / math.log(hi / lo)
        self._edges = [
            lo * math.exp(i / self._scale) for i in range(buckets - 1)
        ]

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self._lo:
            index = 0
        elif seconds >= self._hi:
            index = len(self.counts) - 1
        else:
            index = 1 + int(self._scale * math.log(seconds / self._lo))
        self.counts[index] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile estimate (geometric bucket midpoint)."""
        if not 0 <= q <= 1:
            raise SimulationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * (self.count - 1)
        seen = 0
        for index, bucket in enumerate(self.counts):
            seen += bucket
            if seen > target:
                if index == 0:
                    return self._lo / 2.0
                if index == len(self.counts) - 1:
                    return self._hi
                left = self._edges[index - 1]
                right = self._edges[index]
                return math.sqrt(left * right)
        return self._hi  # pragma: no cover - count guards above

    def footprint(self) -> int:
        """Stored scalars (constant: the bucket and edge arrays)."""
        return len(self.counts) + len(self._edges) + 2


class RejectionWindow:
    """Ring buffer of the last ``size`` admission decisions."""

    __slots__ = ("_ring", "_pos", "_filled", "_rejected")

    def __init__(self, size: int = 1024) -> None:
        if size < 1:
            raise SimulationError(f"window size must be positive, got {size}")
        self._ring = bytearray(size)
        self._pos = 0
        self._filled = 0
        self._rejected = 0

    def add(self, rejected: bool) -> None:
        ring = self._ring
        pos = self._pos
        if self._filled == len(ring):
            self._rejected -= ring[pos]
        else:
            self._filled += 1
        ring[pos] = 1 if rejected else 0
        self._rejected += ring[pos]
        self._pos = (pos + 1) % len(ring)

    def add_rejections(self, n: int) -> None:
        """``n`` consecutive rejections: exactly ``n`` x ``add(True)``."""
        ring = self._ring
        size = len(ring)
        pos = self._pos
        run = min(n, size)  # a longer run only writes every slot again
        head = min(run, size - pos)  # up to the end of the ring ...
        wrapped = run - head  # ... and the rest from its start
        # Slots not yet written are zero, so an unfilled ring needs no
        # case of its own.
        overwritten = ring.count(1, pos, pos + head) + ring.count(1, 0, wrapped)
        self._rejected += run - overwritten
        ring[pos : pos + head] = b"\x01" * head
        ring[:wrapped] = b"\x01" * wrapped
        self._filled = min(size, self._filled + n)
        self._pos = (pos + n) % size

    @property
    def rate(self) -> float:
        """Rejection fraction over the window (0.0 before any decision)."""
        return self._rejected / self._filled if self._filled else 0.0

    @property
    def filled(self) -> int:
        return self._filled

    def footprint(self) -> int:
        return len(self._ring) + 3


class StreamingServiceMetrics:
    """O(1)-memory counters for an open-ended admission stream.

    Everything :class:`~repro.simulation.metrics.RunMetrics` keeps as an
    unbounded list becomes either a fixed-size accumulator (latency
    histogram, rejection window) or a running mean (utilization).
    """

    __slots__ = (
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
        "place_latency",
        "window",
        "util_samples",
        "mean_slot_utilization",
        "last_slot_utilization",
        "mean_bw_utilization",
        "last_bw_utilization",
    )

    def __init__(self, *, window: int = 1024) -> None:
        self.arrivals = 0
        self.accepted = 0
        self.rejected = 0
        self.departures = 0
        self.vms_total = 0
        self.vms_rejected = 0
        self.bw_total = 0.0
        self.bw_rejected = 0.0
        self.cohorts = 0
        self.max_cohort = 0
        self.place_latency = LatencyHistogram()
        self.window = RejectionWindow(window)
        self.util_samples = 0
        self.mean_slot_utilization = 0.0
        self.last_slot_utilization = 0.0
        self.mean_bw_utilization = 0.0
        self.last_bw_utilization = 0.0

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.arrivals if self.arrivals else 0.0

    def sample_utilization(self, slot_fraction: float, bw_fraction: float) -> None:
        self.util_samples += 1
        n = self.util_samples
        self.mean_slot_utilization += (slot_fraction - self.mean_slot_utilization) / n
        self.mean_bw_utilization += (bw_fraction - self.mean_bw_utilization) / n
        self.last_slot_utilization = slot_fraction
        self.last_bw_utilization = bw_fraction

    def footprint(self) -> int:
        """Total stored scalars — constant for any event count."""
        return (
            len(self.__slots__) - 2  # the scalar fields
            + self.place_latency.footprint()
            + self.window.footprint()
        )


class ServiceLoop:
    """Heap-scheduled arrival/departure loop with cohort-batched admission.

    Drives one ``(ledger, placer)`` pair — the same objects the
    per-event :class:`~repro.simulation.cluster.ClusterManager` would
    drive — through an arrival stream (any ``Iterable[Arrival]``,
    including the streaming generators in
    :mod:`repro.simulation.arrivals`).  ``cohort`` caps the batch size
    (1 degenerates to per-event bookkeeping; the decisions are identical
    either way), ``heartbeat`` sets how many events pass between
    utilization samples, gauge refreshes and progress beats.

    ``on_decision`` (tests, benches) receives ``True``/``False`` per
    arrival in order; leave it ``None`` on the hot path.
    """

    def __init__(
        self,
        ledger,
        placer,
        pool: Sequence[Tag],
        *,
        cohort: int = 64,
        heartbeat: int = 4096,
        window: int = 1024,
        progress=None,
        collect_utilization: bool = True,
        on_decision: Callable[[bool], None] | None = None,
    ) -> None:
        if cohort < 1:
            raise SimulationError(f"cohort size must be >= 1, got {cohort}")
        if heartbeat < 1:
            raise SimulationError(f"heartbeat must be >= 1, got {heartbeat}")
        if not pool:
            raise SimulationError("tenant pool is empty")
        self.ledger = ledger
        self.placer = placer
        self.pool = list(pool)
        self.cohort = cohort
        self.heartbeat = heartbeat
        self.progress = progress
        self.collect_utilization = collect_utilization
        self.on_decision = on_decision
        self.metrics = StreamingServiceMetrics(window=window)
        # Per-tag scalars the hot loop would otherwise re-derive from
        # Tag properties on every arrival.
        self._sizes = [tag.size for tag in self.pool]
        self._bws = [tag.total_bandwidth for tag in self.pool]
        self._root_id = ledger.flat.root_id
        self._total_slots = ledger.topology.total_slots
        self._bw_fraction = getattr(ledger, "server_bandwidth_fraction", None)

    # ------------------------------------------------------------------
    def run(self, events: Iterable[Arrival]) -> dict:
        """Stream ``events`` through the loop; returns the report dict."""
        metrics = self.metrics
        pool = self.pool
        sizes = self._sizes
        bws = self._bws
        place = self.placer.place
        free_of = self.ledger.free_slots_id
        root_id = self._root_id
        latency_add = metrics.place_latency.add
        window_add = metrics.window.add
        window_add_rejections = metrics.window.add_rejections
        on_decision = self.on_decision
        cohort_cap = self.cohort
        heartbeat = self.heartbeat
        departures: list[tuple[float, int, object]] = []
        heappush, heappop = heapq.heappush, heapq.heappop
        due = math.inf  # departures[0][0], kept by every push and pop
        sequence = 0
        since_beat = 0
        started = perf_counter()
        if self.progress is not None:
            self.progress.begin(total=None, n_jobs=1)
        # Exactly one event is held ahead of the one being decided.
        stream = iter(events)
        pending = next(stream, None)
        while pending is not None:
            now, index, dwell = pending
            # Departures due at or before this arrival go first — the
            # exact run_arrival_departure ordering rule.
            while due <= now:
                heappop(departures)[2].release()
                metrics.departures += 1
                due = departures[0][0] if departures else math.inf
            # One cohort: consecutive arrivals with no departure due
            # between them.  Admissions may push new departures, so the
            # boundary is re-checked against the live heap head.
            batch = vms = rejected = rej_vms = gated = 0
            bw = rej_bw = 0.0
            free = free_of(root_id)
            while True:
                size = sizes[index]
                batch += 1
                vms += size
                bw += bws[index]
                if size > free:
                    # Fused feasibility gate: more VMs than the whole
                    # datacenter has free — every placer rejects this
                    # identically, without a scan.  The window hears of
                    # a run of these in one call.
                    rejected += 1
                    rej_vms += size
                    rej_bw += bws[index]
                    gated += 1
                    if on_decision is not None:
                        on_decision(False)
                else:
                    if gated:
                        window_add_rejections(gated)
                        gated = 0
                    t0 = perf_counter()
                    result = place(pool[index])
                    latency_add(perf_counter() - t0)
                    if isinstance(result, Rejection):
                        rejected += 1
                        rej_vms += size
                        rej_bw += bws[index]
                        window_add(True)
                        if on_decision is not None:
                            on_decision(False)
                    else:
                        assert isinstance(result, Placement)
                        sequence += 1
                        leaves = now + dwell
                        heappush(departures, (leaves, sequence, result.allocation))
                        if leaves < due:
                            due = leaves
                        free = free_of(root_id)
                        window_add(False)
                        if on_decision is not None:
                            on_decision(True)
                pending = next(stream, None)
                if pending is None or batch == cohort_cap:
                    break
                now, index, dwell = pending
                if due <= now:
                    break
            if gated:
                window_add_rejections(gated)
            # Flush the cohort's accounting in one go.
            metrics.arrivals += batch
            metrics.rejected += rejected
            metrics.accepted += batch - rejected
            metrics.vms_total += vms
            metrics.vms_rejected += rej_vms
            metrics.bw_total += bw
            metrics.bw_rejected += rej_bw
            metrics.cohorts += 1
            if batch > metrics.max_cohort:
                metrics.max_cohort = batch
            since_beat += batch
            if since_beat >= heartbeat:
                self._beat(since_beat)
                since_beat = 0
        elapsed = perf_counter() - started
        self._beat(since_beat)
        if self.progress is not None:
            self.progress.close()
        return self._report(elapsed)

    # ------------------------------------------------------------------
    def _beat(self, events_done: int) -> None:
        """Heartbeat boundary: sample utilization, refresh gauges, tick."""
        metrics = self.metrics
        if self.collect_utilization:
            slot_fraction = 1.0 - self.ledger.free_slots_id(self._root_id) / (
                self._total_slots
            )
            bw_fraction = (
                self._bw_fraction() if self._bw_fraction is not None else 0.0
            )
            metrics.sample_utilization(slot_fraction, bw_fraction)
        c = _obs.counters
        if c is not None:
            # Gauges (assignment, not bump): the O(1)-memory claim and
            # the index footprint are point-in-time readings.
            c["service.metrics_entries"] = metrics.footprint()
            index = self.ledger._candidate_index
            if index is not None:
                stats = index.stats()
                c["service.index_entries"] = (
                    stats["level_entries"] + stats["rack_entries"]
                )
        if self.progress is not None and events_done:
            self.progress.update(step=events_done)

    def _report(self, elapsed: float) -> dict:
        metrics = self.metrics
        latency = metrics.place_latency
        return {
            "arrivals": metrics.arrivals,
            "accepted": metrics.accepted,
            "rejected": metrics.rejected,
            "departures": metrics.departures,
            "vms_total": metrics.vms_total,
            "vms_rejected": metrics.vms_rejected,
            "bw_total": metrics.bw_total,
            "bw_rejected": metrics.bw_rejected,
            "cohorts": metrics.cohorts,
            "max_cohort": metrics.max_cohort,
            "rejection_rate": metrics.rejection_rate,
            "windowed_rejection_rate": metrics.window.rate,
            "utilization": {
                "samples": metrics.util_samples,
                "mean_slot": metrics.mean_slot_utilization,
                "last_slot": metrics.last_slot_utilization,
                "mean_bw": metrics.mean_bw_utilization,
                "last_bw": metrics.last_bw_utilization,
            },
            # Wall-clock block: excluded from trial fingerprints (the
            # "timing" key is a _TIMING_FIELDS member) and zeroed by the
            # service codec so stored payload bytes stay canonical.
            "timing": {
                "runtime_seconds": elapsed,
                "events_per_sec": (
                    metrics.arrivals / elapsed if elapsed > 0 else 0.0
                ),
                "p50_place_ms": latency.quantile(0.5) * 1e3,
                "p99_place_ms": latency.quantile(0.99) * 1e3,
                "mean_place_ms": latency.mean * 1e3,
            },
        }


def ledger_fingerprint(ledger) -> str:
    """SHA-256 of a ledger's reservation end-state.

    The differential suites compare this across the cohort-batched and
    per-event loops: equal fingerprints mean bit-identical slot usage
    and bandwidth reservations on every node (and every W plane, for a
    temporal ledger).
    """
    parts = [repr(ledger._used_slots)]
    if hasattr(ledger, "_used_up"):
        parts.append(repr(ledger._used_up))
        parts.append(repr(ledger._used_down))
    else:  # TemporalLedger: the per-plane blocks are the state
        parts.append(repr(ledger._up))
        parts.append(repr(ledger._down))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()
