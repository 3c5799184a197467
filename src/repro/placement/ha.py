"""High-availability policies for placement (paper §4.5).

Two mechanisms:

* **Guaranteed anti-affinity** — a required worst-case survivability
  (RWCS): after a failure of any single fault-domain subtree at level
  ``laa_level``, at least ``RWCS`` of every tier's VMs must survive.
  Enforced by capping the per-tier VM count in every fault-domain subtree
  (Eq. 7).

* **Opportunistic anti-affinity** — no guarantee, but VMs are spread
  across children whenever colocation would not save bandwidth that is
  actually scarce.  Scarcity ("desirability of bandwidth saving") compares
  the available bandwidth per free slot against the expected per-VM demand
  of arriving tenants, estimated from history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.bandwidth import achieved_wcs, wcs_cap
from repro.core.tag import Tag
from repro.topology.ledger import Ledger
from repro.topology.tree import Node

__all__ = ["HaPolicy", "DemandEstimator", "allocation_wcs"]


@dataclass(frozen=True)
class HaPolicy:
    """HA configuration for a placer.

    ``required_wcs`` in [0, 1): 0 disables the guarantee.  ``laa_level`` is
    the anti-affinity (fault-domain) tree level, 0 = server (the paper's
    default: providers deploy fault-resilient core switches but nothing
    protects against server failure).  ``opportunistic`` enables the
    non-guaranteed spreading of §4.5.
    """

    required_wcs: float = 0.0
    laa_level: int = 0
    opportunistic: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.required_wcs < 1.0:
            raise ValueError(
                f"required_wcs must be in [0, 1), got {self.required_wcs!r}"
            )
        if self.laa_level < 0:
            raise ValueError(f"laa_level must be >= 0, got {self.laa_level}")

    @property
    def guarantees_wcs(self) -> bool:
        return self.required_wcs > 0.0

    def tier_cap(self, tier_size: int) -> int:
        """Eq. 7 cap on one tier's VMs per fault-domain subtree."""
        if not self.guarantees_wcs:
            return tier_size
        return wcs_cap(tier_size, self.required_wcs)

    def applies_at(self, node: Node) -> bool:
        """Whether the Eq. 7 cap constrains subtrees rooted at ``node``."""
        return self.guarantees_wcs and node.level <= self.laa_level


class DemandEstimator:
    """Running estimate of arriving tenants' per-VM bandwidth demand.

    §4.5 determines whether bandwidth saving is *desirable* by comparing
    per-slot available bandwidth against "the average per-VM bandwidth
    demand of input g, factoring in the expected contributions of future
    tenant VMs (predicted based on previous arrivals)".  We keep a running
    mean over all tenants observed so far (the current tenant included),
    which is the simplest consistent predictor of future arrivals.
    """

    def __init__(self) -> None:
        self._total = 0.0
        self._tenants = 0

    def observe(self, tag: Tag) -> None:
        self._total += tag.mean_per_vm_demand()
        self._tenants += 1

    @property
    def expected_per_vm_demand(self) -> float:
        if self._tenants == 0:
            return 0.0
        return self._total / self._tenants


def saving_desirable(
    ledger: Ledger, node: Node, expected_demand: float
) -> bool:
    """Is bandwidth saving by colocation under ``node`` worth pursuing?

    Desirable when the available bandwidth averaged over the unallocated
    slots under ``node`` is *smaller* than the expected per-VM demand —
    i.e. bandwidth, not slots, is the scarce resource there (§4.5).
    Infinite capacities are never scarce; the root always reports
    desirable so the search terminates.
    """
    if node.is_root:
        return True
    free = ledger.free_slots(node)
    if free <= 0:
        return True
    node_id = node.node_id
    available = min(ledger.available_up_id(node_id), ledger.available_down_id(node_id))
    if math.isinf(available):
        return False
    return available / free < expected_demand


def tier_cap_left(ha: HaPolicy, allocation, node: Node, tier: str) -> int:
    """Remaining Eq. 7 headroom for ``tier`` under ``node``.

    Checks ``node`` and every ancestor at or below the anti-affinity level
    (the cap constrains *all* fault-domain subtrees).  Returns the tier
    size when the policy guarantees nothing.  Reads the allocation's
    cached tier size and walks precomputed ancestor ids — this runs once
    per (child, tier) candidate in every placer inner loop.
    """
    size = allocation.tier_size(tier)
    assert size is not None
    headroom = size
    if ha.guarantees_wcs:
        cap = ha.tier_cap(size)
        flat = allocation.ledger.flat
        level = flat.level
        laa_level = ha.laa_level
        count_id = allocation.count_id
        for node_id in flat.ancestors[node.node_id]:
            if level[node_id] > laa_level:
                break
            left = cap - count_id(node_id, tier)
            if left < headroom:
                headroom = left
    return max(0, headroom)


def allocation_wcs(allocation, laa_level: int) -> dict[str, float]:
    """Achieved worst-case survivability per tier of a placed tenant.

    ``allocation`` is a completed :class:`TenantAllocation`; returns
    ``{tier: wcs}`` with WCS computed over fault domains at ``laa_level``
    (paper §4.5: the smallest surviving fraction under any single
    level-``laa_level`` subtree failure).
    """
    result: dict[str, float] = {}
    for component in allocation.tag.internal_components():
        assert component.size is not None
        spread = allocation.tier_spread(component.name, laa_level)
        result[component.name] = achieved_wcs(spread, component.size)
    return result
