"""Window-aware admission control for time-varying tenants (§6 extension).

The classic system reserves every tenant's peak demand around the clock.
Here the datacenter keeps **W bandwidth planes** — one reservation state
per time window over the shared topology — and the unmodified CloudMirror
algorithm runs against a :class:`TemporalLedger`:

* every bandwidth adjustment CM makes (derived from the tenant's *peak*
  TAG) is applied to each plane scaled by that window's fraction of the
  peak (Eq. 1 is linear in a uniform guarantee scaling, so plane ``w``
  needs exactly ``factor_w / peak`` of the peak requirement);
* availability and overcommit are the worst case across planes, so
  placement decisions see exactly the binding window.

A day-peaking web service and a night-peaking batch job then overlap on
the same oversubscribed links — their binding windows differ — which the
peak-everywhere accounting forbids.  With flat profiles every plane is
identical and the system degenerates to the classic one.

Unlike the pre-PR-5 facade (kept as ``ReferenceTemporalLedger`` in
``tests/temporal/test_temporal_equivalence.py``), the ledger does **not**
multiplex W :class:`~repro.topology.ledger.Ledger` objects.  All W
planes live in one contiguous state block per direction over the shared
:class:`~repro.topology.flat.FlatTopology` — each node's W-window column
is one contiguous slice, and :meth:`TemporalLedger.plane_matrices`
exposes the block as ``(W × num_nodes)`` numpy matrices for bulk
readers — plus an incrementally-maintained per-node worst-case cache,
so:

* ``available_*``/``nominal_*``/``reserved_*`` are a single cache load
  (capacity minus the cross-plane maximum) instead of a generator
  expression ``min`` over W per-plane method calls — they are the
  :class:`~repro.topology.ledger.ReservationLedger` queries, which
  read nothing but that cache;
* ``adjust_uplink_id`` is one fused scaled-delta + feasibility check
  across the whole plane column, journalled as a single tuple undo
  record (previous column + previous maxima) — no per-plane journals
  and no partial-failure rollback loop;
* ``window_utilization`` reads level id slices off the flat topology
  instead of walking ``Node`` objects.

VM slots are time-invariant, so slot state stays scalar, and
:class:`TemporalLedger` inherits it — with every query, the overcommit
set and ``rollback`` — from the base it shares with the classic ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro import _kernels
from repro.core.constants import EPSILON
from repro.core.tag import Tag
from repro.errors import LedgerError, SimulationError
from repro.obs import core as _obs
from repro.placement.base import Placement, Rejection
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.temporal.profile import TemporalProfile, TemporalTag
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Journal, ReservationLedger
from repro.topology.tree import Node, Topology

__all__ = [
    "TemporalLedger",
    "TemporalPlaneView",
    "TemporalAdmission",
    "TemporalCluster",
    "peak_equivalent",
]

_EPSILON = EPSILON


class TemporalPlaneView:
    """Read-only view of one window's reservations (tests, benchmarks)."""

    __slots__ = ("_ledger", "_window")

    def __init__(self, ledger: "TemporalLedger", window: int) -> None:
        self._ledger = ledger
        self._window = window

    def reserved_up(self, node: Node) -> float:
        return self.reserved_up_id(node.node_id)

    def reserved_up_id(self, node_id: int) -> float:
        ledger = self._ledger
        if node_id == ledger._root_id:
            return 0.0
        return ledger._up[node_id * ledger.windows + self._window]

    def reserved_down(self, node: Node) -> float:
        return self.reserved_down_id(node.node_id)

    def reserved_down_id(self, node_id: int) -> float:
        ledger = self._ledger
        if node_id == ledger._root_id:
            return 0.0
        return ledger._down[node_id * ledger.windows + self._window]

    def reserved_at_level(self, level: int) -> float:
        ledger = self._ledger
        return ledger._level_sum(level, ledger._up, ledger.windows, self._window)


class TemporalLedger(ReservationLedger):
    """W bandwidth planes on one contiguous per-direction state block.

    The same :class:`~repro.topology.ledger.ReservationLedger` the
    classic ledger is, over W-window columns: ``_max_up`` / ``_max_down``
    hold each uplink's cross-plane maximum, so availability and
    overcommit are the binding window's.  Slots are global; bandwidth
    deltas apply to every plane scaled by the *active ratios* (the
    current tenant's per-window fraction of its peak), which the caller
    must set via :meth:`set_ratios` before placing or releasing a tenant
    — reservations are plane-scaled per tenant, so release must run
    under the same ratios as the original placement.
    """

    def __init__(self, topology: Topology, windows: int) -> None:
        if windows < 1:
            raise SimulationError("need at least one time window")
        super().__init__(topology)
        self.windows = windows
        # The reservation block: node ``i``'s W-window column is the
        # contiguous slice ``[i*W, (i+1)*W)``, so the fused adjust reads
        # and writes one slice; plane ``w`` is the stride-W view
        # ``[w::W]`` (see plane_matrices / TemporalPlaneView).
        size = self.flat.size * windows
        self._up = [0.0] * size
        self._down = [0.0] * size
        self._ratios: tuple[float, ...] = tuple([1.0] * windows)
        # Ratio memo: profiles hash by their factors tuple, and the
        # window-to-peak ratios are a pure function of them, so a pool
        # of ~80 recurring tenants computes each division exactly once
        # over a million-event service run.  ``_active_profile`` is the
        # identity fast path for back-to-back activations of one profile.
        self._ratio_cache: dict[TemporalProfile, tuple[float, ...]] = {}
        self._active_profile: TemporalProfile | None = None
        self._planes = tuple(
            TemporalPlaneView(self, window) for window in range(windows)
        )

    @property
    def planes(self) -> tuple[TemporalPlaneView, ...]:
        """Per-window read views (the legacy per-plane-Ledger surface)."""
        return self._planes

    def plane_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """``(W × num_nodes)`` numpy snapshots of both direction blocks."""
        shape = (self.flat.size, self.windows)
        return (
            np.asarray(self._up).reshape(shape).T.copy(),
            np.asarray(self._down).reshape(shape).T.copy(),
        )

    # ------------------------------------------------------------------
    def set_ratios(self, profile: TemporalProfile) -> None:
        """Activate one tenant's window-to-peak ratios (memoized)."""
        if profile is self._active_profile:
            return
        ratios = self._ratio_cache.get(profile)
        if ratios is None:
            if profile.windows != self.windows:
                raise SimulationError(
                    f"profile has {profile.windows} windows, ledger has "
                    f"{self.windows}"
                )
            peak = profile.peak
            if peak <= 0:
                raise SimulationError("profile peak must be positive")
            ratios = tuple(factor / peak for factor in profile.factors)
            self._ratio_cache[profile] = ratios
            c = _obs.counters
            if c is not None:
                c.bump("temporal.ratio_compiles")
        self._ratios = ratios
        self._active_profile = profile

    # ------------------------------------------------------------------
    # per-window read-outs
    # ------------------------------------------------------------------
    def reserved_at_level(self, level: int) -> float:
        """Worst-case (across planes) reserved up-bandwidth at one level."""
        return max(plane.reserved_at_level(level) for plane in self._planes)

    def window_level_fraction(self, window: int, level: int) -> float:
        """Reserved fraction of one level's aggregate capacity, one window."""
        capacity = self._level_sum(level, self._cap_up)
        if capacity == 0 or math.isinf(capacity):
            return 0.0
        return self._level_sum(level, self._up, self.windows, window) / capacity

    # ------------------------------------------------------------------
    # mutations (journalled)
    # ------------------------------------------------------------------
    def adjust_uplink_id(
        self,
        node_id: int,
        delta_up: float,
        delta_down: float,
        journal: Journal,
        enforce: bool = True,
    ) -> bool:
        """One fused scaled-delta + feasibility check across all planes.

        The column read-modify-write (scaled deltas, negativity check,
        clamp, maxima, journal record) runs in
        :mod:`repro._kernels`; this wrapper keeps the root fast
        path, the error raise, and the obs counter.
        """
        if node_id == self._root_id:
            return True
        status = _kernels.temporal_adjust(
            self._up,
            self._down,
            self._max_up,
            self._max_down,
            self._cap_up,
            self._cap_down,
            self._over,
            journal.ops,
            self._ratios,
            node_id,
            self.windows,
            delta_up,
            delta_down,
            enforce,
            _EPSILON,
        )
        if status:
            return self._adjust_refused(status, node_id)
        c = _obs.counters
        if c is not None:
            c.bump("temporal.journal_ops")
        return True

    def would_overcommit(
        self, node_id: int, deltas: Iterable[tuple[float, float]]
    ) -> bool | None:
        """Would unenforced adjusts by ``deltas``, in order, end overcommitted?

        The W-plane twin of :meth:`Ledger.would_overcommit`: the real
        adjust kernel, under the active ratios, on a private copy of the
        node's column; ``None`` when a delta would be refused.
        """
        if node_id == self._root_id:
            return False
        windows = self.windows
        base = node_id * windows
        up, down = self._up[base : base + windows], self._down[base : base + windows]
        max_up, max_down = [self._max_up[node_id]], [self._max_down[node_id]]
        cap_up, cap_down = [self._cap_up[node_id]], [self._cap_down[node_id]]
        over: set[int] = set()
        column = (up, down, max_up, max_down, cap_up, cap_down, over, [], self._ratios)
        for d_up, d_down in deltas:
            if _kernels.temporal_adjust(
                *column, 0, windows, d_up, d_down, False, _EPSILON
            ):
                return None
        return bool(over)

    def release_uplink_id(self, node_id: int, up: float, down: float) -> None:
        """Unjournalled scaled release on every plane (departure path)."""
        if node_id == self._root_id:
            return
        windows = self.windows
        base = node_id * windows
        ratios = self._ratios
        new_up = [
            p - up * r
            for p, r in zip(self._up[base : base + windows], ratios)
        ]
        new_down = [
            p - down * r
            for p, r in zip(self._down[base : base + windows], ratios)
        ]
        if min(new_up) < -_EPSILON or min(new_down) < -_EPSILON:
            raise LedgerError(
                "releasing more bandwidth than reserved on "
                f"{self._name(node_id)!r}"
            )
        new_up = [v if v > 0.0 else 0.0 for v in new_up]
        new_down = [v if v > 0.0 else 0.0 for v in new_down]
        self._up[base : base + windows] = new_up
        self._down[base : base + windows] = new_down
        self._max_up[node_id] = max(new_up)
        self._max_down[node_id] = max(new_down)
        self._update_overcommit(node_id)

    def _restore_bandwidth(self, op) -> None:
        """Undo one record of the temporal adjust kernel — ``(OP_BANDWIDTH,
        node_id, prev_up_column, prev_down_column, prev_max_up,
        prev_max_down)`` — on every plane at once."""
        node_id = op[1]
        windows = self.windows
        base = node_id * windows
        self._up[base : base + windows] = op[2]
        self._down[base : base + windows] = op[3]
        self._max_up[node_id] = op[4]
        self._max_down[node_id] = op[5]


@dataclass(eq=False)
class TemporalAdmission:
    """A live window-aware tenant, hashed by identity: the handle
    ``admit`` returns and ``depart`` consumes."""

    tenant: TemporalTag
    allocation: object


class TemporalCluster:
    """CloudMirror admission over W per-window bandwidth planes."""

    def __init__(
        self,
        spec: DatacenterSpec | None,
        windows: int,
        *,
        topology: Topology | None = None,
    ) -> None:
        self.spec = spec
        self.windows = windows
        # An explicit topology (heterogeneous fabrics, pruned failure
        # references) overrides the spec-built symmetric tree.
        if topology is None:
            if spec is None:
                raise SimulationError("need a DatacenterSpec or a topology")
            topology = three_level_tree(spec)
        self.topology: Topology = topology
        self.ledger = TemporalLedger(self.topology, windows)
        # The candidate index attaches to the temporal ledger the same
        # way it does to the classic one: slots are plane-invariant, so
        # admissions and departures across windows share one index.
        self.placer = CloudMirrorPlacer(self.ledger)  # type: ignore[arg-type]
        self._admitted: dict[TemporalAdmission, None] = {}  # ordered set
        self.rejected = 0

    @property
    def admitted(self) -> list[TemporalAdmission]:
        """Live admissions, in admission order."""
        return list(self._admitted)

    def admit(self, tenant: TemporalTag) -> TemporalAdmission | None:
        """Place one time-varying tenant; None when any window overflows."""
        if tenant.profile.windows != self.windows:
            raise SimulationError(
                f"tenant has {tenant.profile.windows} windows, cluster has "
                f"{self.windows}"
            )
        self.ledger.set_ratios(tenant.profile)
        # The peak tag, memoized on the base so a pool tenant's arrivals
        # share one and, through it, the placer's plans and edge tables.
        peak = tenant.base.derived(Tag.scaled, tenant.profile.peak)
        result = self.placer.place(peak)
        if isinstance(result, Rejection):
            self.rejected += 1
            return None
        assert isinstance(result, Placement)
        admission = TemporalAdmission(tenant, result.allocation)
        self._admitted[admission] = None
        return admission

    def depart(self, admission: TemporalAdmission) -> None:
        # Release must run under the departing tenant's own ratios: its
        # plane reservations were scaled by them at placement time.
        if admission not in self._admitted:
            raise SimulationError("departing tenant is not admitted")
        self.ledger.set_ratios(admission.tenant.profile)
        admission.allocation.release()
        del self._admitted[admission]

    # ------------------------------------------------------------------
    def window_utilization(self, window: int, level: int) -> float:
        """Reserved fraction of one level's aggregate capacity, one window."""
        return self.ledger.window_level_fraction(window, level)


def peak_equivalent(tenant: TemporalTag) -> TemporalTag:
    """The time-unaware version of a tenant (peak in every window)."""
    return TemporalTag(
        tenant.base,
        TemporalProfile.flat(tenant.profile.windows, tenant.profile.peak),
    )
