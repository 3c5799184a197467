"""The arrival/departure event loop: cohort-batched admission.

:class:`ServiceLoop` is the one heap-driven admit/depart loop: the §5.1
paper figures (Figs. 7-12, through
:func:`repro.simulation.runner.run_rejections`) and the failure scenario
stream their arrivals through it.  It is organised around **cohorts** —
maximal runs of consecutive arrivals with no departure due between
them — while keeping every placement decision *bit-identical* to a
sequential per-event ``place``/``release`` loop (the differential suite
in ``tests/simulation`` pins accept/reject sequences, ledger end-state
and the paper-figure metrics for every placer):

* decisions stay strictly sequential — a cohort changes *when the
  bookkeeping happens*, never the ledger state a placement sees;
* one fused feasibility pre-pass per cohort: a running root free-slot
  count screens arrivals that cannot fit before the placer is invoked
  (every placer's own first check is that same comparison, and a
  screened arrival still reaches a placer's ``observe`` hook, so §4.5's
  arrival-based demand estimate sees every tenant);
* the counts accumulate in locals and flush once per cohort;
  per-decision bookkeeping (the paper figures' ``RunMetrics``) rides on
  the ``on_decision`` hook.

The placement scan itself stays O(1)-amortized across events because
the :class:`~repro.placement.candidates.CandidateIndex` attached to the
ledger persists for the whole run: arrivals and departures repair its
sorted orders in place through the dirty-bit funnel, and the per-tag
compile caches (:mod:`repro.placement.state`) mean a recurring pool
tenant never re-derives its requirement closure.
"""

from __future__ import annotations

import dataclasses
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

__all__ = ["ServiceCounts", "ServiceLoop", "ledger_fingerprint"]


@dataclasses.dataclass(slots=True)
class ServiceCounts:
    """The loop's cumulative counts, across every :meth:`ServiceLoop.run`."""

    arrivals: int = 0
    accepted: int = 0
    rejected: int = 0
    departures: int = 0
    vms_total: int = 0
    vms_rejected: int = 0
    bw_total: float = 0.0
    bw_rejected: float = 0.0
    cohorts: int = 0
    max_cohort: int = 0

    def report(self) -> dict:
        """Every count, plus ``rejection_rate``, as a plain dict."""
        report = dataclasses.asdict(self)
        report["rejection_rate"] = (
            self.rejected / self.arrivals if self.arrivals else 0.0
        )
        return report


class ServiceLoop:
    """Heap-scheduled arrival/departure loop with cohort-batched admission.

    Drives one ``(ledger, placer)`` pair through an arrival stream (any
    ``Iterable[Arrival]``, including the streaming generator
    :func:`repro.simulation.arrivals.arrival_stream`).  ``cohort`` caps
    the batch size (1 degenerates to per-event bookkeeping; the
    decisions are identical either way).

    ``on_decision`` receives ``(tag, allocation)`` per arrival, right
    after its decision (``allocation`` is ``None`` for any rejection).
    A placer's ``observe(tag)``, if it has one, hears of every arrival
    the gate rejects: a wrapper around an opportunistic-HA placer must
    forward it.  Calling :meth:`run` again continues the stream;
    ``place_seconds`` sums the wall clock of every ``place`` call.
    """

    def __init__(
        self,
        ledger,
        placer,
        pool: Sequence[Tag],
        *,
        cohort: int = 64,
        on_decision: Callable[[Tag, object | None], None] | None = None,
    ) -> None:
        if cohort < 1:
            raise SimulationError(f"cohort size must be >= 1, got {cohort}")
        if not pool:
            raise SimulationError("tenant pool is empty")
        self.ledger = ledger
        self.placer = placer
        self.pool = list(pool)
        self.cohort = cohort
        self.on_decision = on_decision
        self.counts = ServiceCounts()
        self.place_seconds = 0.0
        # (departure time, admission sequence, allocation) min-heap.
        self._departures: list[tuple[float, int, object]] = []
        # Per-tag scalars the hot loop would otherwise re-derive from
        # Tag properties on every arrival.
        self._sizes = [tag.size for tag in self.pool]
        self._bws = [tag.total_bandwidth for tag in self.pool]
        self._root_id = ledger.flat.root_id

    # ------------------------------------------------------------------
    def run(self, events: Iterable[Arrival]) -> dict:
        """Stream ``events`` through the loop; returns the counts'
        :meth:`ServiceCounts.report`."""
        counts = self.counts
        pool = self.pool
        sizes = self._sizes
        bws = self._bws
        place = self.placer.place
        if _obs.recorder is not None:
            place = _spanned(place)
        observe = getattr(self.placer, "observe", None)
        free_of = self.ledger.free_slots_id
        root_id = self._root_id
        on_decision = self.on_decision
        cohort_cap = self.cohort
        departures = self._departures
        heappush, heappop = heapq.heappush, heapq.heappop
        due = departures[0][0] if departures else math.inf  # kept by push/pop
        sequence = counts.accepted  # one per admission, across runs
        place_seconds = 0.0
        # Exactly one event is held ahead of the one being decided.
        stream = iter(events)
        pending = next(stream, None)
        while pending is not None:
            now, index, dwell = pending
            # Departures due at or before this arrival go first.
            while due <= now:
                heappop(departures)[2].release()
                counts.departures += 1
                due = departures[0][0] if departures else math.inf
            # One cohort: consecutive arrivals with no departure due
            # between them.  Admissions may push new departures, so the
            # boundary is re-checked against the live heap head.
            batch = vms = rejected = rej_vms = 0
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
                    # identically, without a scan.
                    rejected += 1
                    rej_vms += size
                    rej_bw += bws[index]
                    if observe is not None:
                        observe(pool[index])
                    if on_decision is not None:
                        on_decision(pool[index], None)
                else:
                    tag = pool[index]
                    t0 = perf_counter()
                    result = place(tag)
                    place_seconds += perf_counter() - t0
                    if isinstance(result, Rejection):
                        rejected += 1
                        rej_vms += size
                        rej_bw += bws[index]
                        if on_decision is not None:
                            on_decision(tag, None)
                    else:
                        assert isinstance(result, Placement)
                        sequence += 1
                        leaves = now + dwell
                        heappush(departures, (leaves, sequence, result.allocation))
                        if leaves < due:
                            due = leaves
                        free = free_of(root_id)
                        if on_decision is not None:
                            on_decision(tag, result.allocation)
                pending = next(stream, None)
                if pending is None or batch == cohort_cap:
                    break
                now, index, dwell = pending
                if due <= now:
                    break
            # Flush the cohort's accounting in one go.
            counts.arrivals += batch
            counts.rejected += rejected
            counts.accepted += batch - rejected
            counts.vms_total += vms
            counts.vms_rejected += rej_vms
            counts.bw_total += bw
            counts.bw_rejected += rej_bw
            counts.cohorts += 1
            if batch > counts.max_cohort:
                counts.max_cohort = batch
        self.place_seconds += place_seconds
        return counts.report()

    def live(self) -> list:
        """Allocations admitted and not yet departed, in admission order."""
        by_admission = sorted(self._departures, key=lambda entry: entry[1])
        return [entry[2] for entry in by_admission]


def _spanned(place):
    """``place`` inside a ``place`` span (bound only while tracing)."""

    def traced_place(tag):
        with _obs.span("place"):
            return place(tag)

    return traced_place


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
