"""Vectorized progressive-filling max-min allocation (enforcement substrate).

The classic water-filling algorithm over a set of flows sharing capacity
links, with optional per-flow rate limits and demands.  Used twice by the
ElasticSwitch model: once over *virtual* guarantee links (guarantee
partitioning) and once over physical links (work-conserving rate
allocation), and once more to model TCP's own max-min behaviour.

The public :func:`maxmin_rates` surface is unchanged from the scalar
implementation (kept as ``reference_maxmin`` in
``tests/enforcement/test_maxmin_equivalence.py``), but the
engine underneath is rebuilt on arrays: link ids are interned to dense
integers **once**, the flow×link incidence becomes sparse CSR-style
entry arrays (one entry per crossing, so multiplicity is preserved),
and each progressive-filling round computes the per-link user counts
with one weighted ``bincount``, the binding increment with two
reductions, and the frozen set with boolean masks — O(crossings) per
round.  The freezing and tie semantics — a link at residual
``<= CONVERGENCE_EPSILON`` freezes every flow crossing it, a flow within
epsilon of its limit freezes itself, and a stalled round freezes
everything — are exactly the scalar kernel's, and the floating-point
operations are element-for-element identical, so the rates are
bit-identical to the legacy code (a lockstep property test pins this).

Callers that already know their link structure (ElasticSwitch's
guarantee partitioning) can skip the hashing entirely: build a
:class:`MaxMinProblem` from integer link rows and call
:func:`solve_maxmin` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.core.constants import CONVERGENCE_EPSILON
from repro.errors import EnforcementError
from repro.obs import core as _obs

__all__ = ["FlowSpec", "MaxMinProblem", "maxmin_rates", "solve_maxmin"]

LinkId = Hashable


@dataclass(frozen=True)
class FlowSpec:
    """One flow: the links it crosses, and an optional demand/rate limit."""

    links: tuple[LinkId, ...]
    limit: float = math.inf

    def __post_init__(self) -> None:
        if self.limit < 0:
            raise EnforcementError(f"flow limit must be >= 0, got {self.limit}")


class MaxMinProblem:
    """An indexed water-filling instance over dense integer link ids.

    The flow×link incidence is stored sparse, as parallel *entry*
    arrays — ``entry_flow[k]`` crosses ``entry_link[k]`` (one entry per
    crossing, so a flow crossing a link twice consumes two shares, as
    in the scalar kernel) — which keeps every per-round reduction
    O(crossings) instead of O(flows × links).  ``limits`` are the
    per-flow rate caps (``inf`` = unbounded), ``capacities`` the
    per-link capacities; only links actually crossed by some flow need
    to exist — absent links cannot bind.
    """

    __slots__ = (
        "entry_flow",
        "entry_link",
        "limits",
        "capacities",
        "has_links",
        "n_flows",
        "n_links",
    )

    def __init__(
        self,
        entry_flow: np.ndarray,
        entry_link: np.ndarray,
        limits: np.ndarray,
        capacities: np.ndarray,
    ) -> None:
        if np.any(capacities < 0):
            raise EnforcementError("negative link capacity")
        self.entry_flow = entry_flow
        self.entry_link = entry_link
        self.limits = limits
        self.capacities = capacities
        self.n_flows = len(limits)
        self.n_links = len(capacities)
        self.has_links = (
            np.bincount(entry_flow, minlength=self.n_flows) > 0
        )

    @classmethod
    def from_links(
        cls,
        flow_links: Sequence[Sequence[int]],
        limits: Sequence[float],
        capacities: Sequence[float],
    ) -> "MaxMinProblem":
        """Build the entry arrays from per-flow integer link rows."""
        entry_flow: list[int] = []
        entry_link: list[int] = []
        for flow_index, links in enumerate(flow_links):
            for link in links:
                entry_flow.append(flow_index)
                entry_link.append(link)
        return cls(
            np.asarray(entry_flow, dtype=np.intp),
            np.asarray(entry_link, dtype=np.intp),
            np.asarray(limits, dtype=np.float64),
            np.asarray(capacities, dtype=np.float64),
        )


def solve_maxmin(problem: MaxMinProblem) -> list[float]:
    """Max-min fair rates for an indexed :class:`MaxMinProblem`.

    Progressive filling: raise all unfrozen flows together; at each step
    the binding constraint is either a link reaching capacity (freezing
    every flow crossing it) or a flow reaching its limit.
    """
    limits = problem.limits
    entry_flow = problem.entry_flow
    entry_link = problem.entry_link
    n_flows = problem.n_flows
    n_links = problem.n_links
    has_links = problem.has_links
    rates = np.zeros(n_flows)
    # A flow crossing no links is only bounded by its own (finite) demand.
    demand_bound = ~has_links & np.isfinite(limits)
    rates[demand_bound] = limits[demand_bound]
    active = has_links & (limits > 0.0)
    residual = problem.capacities.astype(np.float64, copy=True)
    epsilon = CONVERGENCE_EPSILON
    rounds = 0

    while active.any():
        rounds += 1
        # Smallest increment that freezes something: a link filling up
        # (equal shares among its current users) or a flow's own limit.
        entry_active = active[entry_flow].astype(np.float64)
        users = np.bincount(
            entry_link, weights=entry_active, minlength=n_links
        )
        used = users > 0.0
        shares = np.divide(
            residual, users, out=np.full_like(residual, math.inf), where=used
        )
        increment = float(shares.min()) if shares.size else math.inf
        increment = min(increment, float((limits - rates)[active].min()))
        if math.isinf(increment):
            # No finite constraint: flows are unbounded; treat as an error
            # because enforcement always runs on finite bottlenecks.
            raise EnforcementError("max-min with unbounded flows and links")
        increment = max(0.0, increment)
        rates[active] += increment
        residual -= increment * users
        dead = used & (residual <= epsilon)
        dead_crossings = np.bincount(
            entry_flow,
            weights=dead[entry_link].astype(np.float64),
            minlength=n_flows,
        )
        frozen = active & (dead_crossings > 0.0)
        frozen |= active & (limits - rates <= epsilon)
        if not frozen.any():
            # Numerical stall; freeze everything to terminate.
            frozen = active.copy()
        active &= ~frozen
    # One bump per solve (rounds tallied locally): the kernel is called
    # thousands of times per enforcement trial, so per-round counter
    # traffic would be measurable even though per-solve traffic is not.
    c = _obs.counters
    if c is not None:
        c.bump("maxmin.solves")
        c.bump("maxmin.rounds", rounds)
    return rates.tolist()


def maxmin_rates(
    flows: Sequence[FlowSpec], capacities: dict[LinkId, float]
) -> list[float]:
    """Max-min fair rates for ``flows`` over ``capacities``.

    Interns the hashable link ids into a dense :class:`MaxMinProblem`
    and hands it to :func:`solve_maxmin`.
    """
    for flow in flows:
        for link in flow.links:
            if link not in capacities:
                raise EnforcementError(f"flow references unknown link {link!r}")
    for link, capacity in capacities.items():
        if capacity < 0:
            raise EnforcementError(f"negative capacity on link {link!r}")

    index: dict[LinkId, int] = {}
    caps: list[float] = []
    flow_links: list[list[int]] = []
    for flow in flows:
        row: list[int] = []
        for link in flow.links:
            link_index = index.get(link)
            if link_index is None:
                link_index = index[link] = len(caps)
                caps.append(capacities[link])
            row.append(link_index)
        flow_links.append(row)
    problem = MaxMinProblem.from_links(
        flow_links, [flow.limit for flow in flows], caps
    )
    return solve_maxmin(problem)
