"""Time-stepped ElasticSwitch dynamics (§5.2 substrate, beyond steady state).

The static model in :mod:`repro.enforcement.elasticswitch` computes the
fixed point directly.  The real ElasticSwitch is a distributed control
loop in each hypervisor: every period it (re)partitions guarantees among
the currently-active pairs (GP) and probes for spare bandwidth with an
increase/decrease law on top of the guarantee (RA).  This module
simulates that loop so experiments can observe *convergence*: how many
periods a new flow needs before its guarantee is honoured, and how
work-conserving rates back off when congestion appears.

Model per period:

1. **GP** — pair guarantees = max-min over the virtual guarantee hoses
   (per TAG edge in ``tag`` mode; single per-VM hose in ``hose`` mode),
   exactly as the static model.
2. **RA** — each pair holds a rate limit ``limit >= guarantee``.  The
   network allocates max-min rates subject to the limits.  A pair that
   achieved its limit (no congestion) multiplicatively increases the
   limit (probing, "rate increase" in ElasticSwitch); a pair that got
   less than its limit observed congestion and backs the limit off
   toward ``max(guarantee, achieved)`` ("rate decrease").  Limits never
   drop below the guarantee — guarantees are the protected floor.

Links are shared FIFO queues: when the offered load exceeds capacity,
loss hits every crossing flow in proportion to its sending rate, and the
resulting throughput reduction is the congestion signal.  The loop traps
limits in [guarantee, demand]; tests assert convergence to within a few
percent of the static fixed point in a few dozen periods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.tag import Tag
from repro.enforcement.elasticswitch import (
    EnforcementProblem,
    PairFlow,
    build_enforcement_problem,
    solve_enforcement,
)
from repro.errors import EnforcementError

__all__ = ["PeriodSample", "ElasticSwitchDynamics"]

# Control-loop constants, following ElasticSwitch's spirit.
_INCREASE_FACTOR = 1.06
_DECREASE_FACTOR = 0.90
_HEADROOM = 0.1


@dataclass(frozen=True)
class PeriodSample:
    """Rates and limits after one control period."""

    period: int
    guarantees: tuple[float, ...]
    limits: tuple[float, ...]
    rates: tuple[float, ...]


class ElasticSwitchDynamics:
    """A running enforcement control loop over a fixed set of flows.

    Flows can be added between periods (``add_flow``), modelling
    tenants' pairs becoming active, as in the Fig. 13 experiment where
    C2 senders appear one by one.
    """

    def __init__(
        self,
        tag: Tag,
        capacities: dict[object, float],
        *,
        mode: str = "tag",
    ) -> None:
        if mode not in ("tag", "hose"):
            raise EnforcementError(f"mode must be 'tag' or 'hose', got {mode!r}")
        self.tag = tag
        self.capacities = dict(capacities)
        self.mode = mode
        self.flows: list[PairFlow] = []
        self._limits: list[float] = []
        self._period = 0
        # The interned incidence is rebuilt lazily whenever the flow set
        # changes; between changes every period's GP pass and transmit
        # model reuse the same arrays.
        self._problem: EnforcementProblem | None = None

    # ------------------------------------------------------------------
    def add_flow(self, flow: PairFlow) -> None:
        """Activate a pair; its initial limit is its (next) guarantee."""
        for link in flow.links:
            if link not in self.capacities:
                raise EnforcementError(f"flow references unknown link {link!r}")
        self.flows.append(flow)
        self._limits.append(0.0)  # bootstrapped to the guarantee next period
        self._problem = None

    def _ensure_problem(self) -> EnforcementProblem:
        if self._problem is None:
            self._problem = build_enforcement_problem(
                self.tag,
                self.flows,
                self.capacities,
                mode=self.mode,
                headroom=_HEADROOM,
            )
        return self._problem

    # ------------------------------------------------------------------
    def step(self) -> PeriodSample:
        """Run one control period: GP, RA probe adjustment, allocation."""
        if not self.flows:
            self._period += 1
            return PeriodSample(self._period, (), (), ())
        guarantees = self._partition_guarantees()
        # Bootstrap / floor every limit at the current guarantee.
        for i, guarantee in enumerate(guarantees):
            self._limits[i] = max(self._limits[i], guarantee)
            self._limits[i] = min(self._limits[i], self.flows[i].demand)
        rates, congested = self._transmit(self._limits)
        # Probe: congestion-free pairs raise their limit; congested pairs
        # back off toward their *guarantee* — retreating to the protected
        # floor (never below it) is what makes guarantees hold under
        # congestion in ElasticSwitch.
        for i, flow in enumerate(self.flows):
            limit = self._limits[i]
            if not congested[i] and limit < flow.demand:
                new_limit = limit * _INCREASE_FACTOR
            else:
                new_limit = max(guarantees[i], limit * _DECREASE_FACTOR)
            self._limits[i] = min(max(new_limit, guarantees[i]), flow.demand)
        self._period += 1
        return PeriodSample(
            self._period, tuple(guarantees), tuple(self._limits), tuple(rates)
        )

    # ------------------------------------------------------------------
    def _partition_guarantees(self) -> list[float]:
        return list(solve_enforcement(self._ensure_problem()).guarantees)

    def _transmit(
        self, limits: Sequence[float]
    ) -> tuple[list[float], list[bool]]:
        """Send at the rate limits through proportional-loss links.

        A link whose offered load exceeds capacity drops packets from
        every crossing flow in proportion to its sending rate (a shared
        FIFO queue); a flow's throughput is its limit scaled by the worst
        link on its path, and any scaling at all is the congestion signal
        the control loop reacts to.  Runs on the cached problem's
        physical entry arrays: one weighted bincount computes the
        offered load, one masked divide the per-link scale factors.
        """
        problem = self._ensure_problem()
        sending = np.minimum(np.asarray(limits, dtype=np.float64), problem.demands)
        capacities = problem.phys_capacities
        offered = np.bincount(
            problem.phys_entry_link,
            weights=sending[problem.phys_entry_flow],
            minlength=len(capacities),
        )
        congested_links = ~np.isinf(capacities) & (offered > capacities)
        scale = np.ones(len(capacities))
        np.divide(capacities, offered, out=scale, where=congested_links)
        rates: list[float] = []
        congested: list[bool] = []
        for send, phys_row in zip(sending, problem.flow_phys_ids):
            factor = min((scale[p] for p in phys_row), default=1.0)
            rates.append(float(send * factor))
            congested.append(factor < 1.0 - 1e-12)
        return rates, congested
