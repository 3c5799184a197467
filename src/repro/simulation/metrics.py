"""Metrics collected by the admission simulations (paper §5.1).

The evaluation reports three rejection metrics — fraction of rejected
tenants, of rejected VMs, and of rejected aggregate bandwidth, each
relative to the totals over all arrivals — plus per-component worst-case
survivability (WCS) statistics and per-level reserved bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.tag import Tag
from repro.placement.ha import allocation_wcs

__all__ = ["RunMetrics", "UtilizationSample", "WcsStats"]


@dataclass
class WcsStats:
    """Distribution of achieved per-component WCS over deployed tenants."""

    values: list[float] = field(default_factory=list)

    def add(self, wcs: float) -> None:
        self.values.append(wcs)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values)) if self.values else 0.0

    @property
    def minimum(self) -> float:
        return float(min(self.values)) if self.values else 0.0

    @property
    def maximum(self) -> float:
        return float(max(self.values)) if self.values else 0.0


@dataclass
class UtilizationSample:
    """A point-in-time snapshot of datacenter resource usage."""

    slot_fraction: float
    bandwidth_fraction: float


@dataclass
class RunMetrics:
    """Counters for one simulation run."""

    tenants_total: int = 0
    tenants_rejected: int = 0
    vms_total: int = 0
    vms_rejected: int = 0
    bw_total: float = 0.0
    bw_rejected: float = 0.0
    wcs: WcsStats = field(default_factory=WcsStats)
    runtime_seconds: float = 0.0
    utilization: list[UtilizationSample] = field(default_factory=list)

    def record_arrival(self, vms: int, bandwidth: float) -> None:
        self.tenants_total += 1
        self.vms_total += vms
        self.bw_total += bandwidth

    def record_rejection(self, vms: int, bandwidth: float) -> None:
        self.tenants_rejected += 1
        self.vms_rejected += vms
        self.bw_rejected += bandwidth

    def recorder(
        self, ledger, laa_level: int = 0
    ) -> Callable[[Tag, object | None], None]:
        """A ``ServiceLoop`` ``on_decision`` hook filling these metrics.

        Per decision: the totals (added one tenant at a time, as a
        per-event loop adds them), the WCS of an admitted tenant's
        multi-VM tiers, and a utilization sample of ``ledger``.
        """
        root_id = ledger.flat.root_id
        total_slots = ledger.topology.total_slots

        def record(tag: Tag, allocation) -> None:
            self.record_arrival(tag.size, tag.total_bandwidth)
            if allocation is None:
                self.record_rejection(tag.size, tag.total_bandwidth)
            else:
                try:
                    per_tier = allocation_wcs(allocation, laa_level)
                except (AttributeError, ValueError):  # pipes, size-0 tiers
                    per_tier = {}
                for tier, wcs in per_tier.items():
                    # Single-VM tiers cannot survive any fault-domain
                    # failure; the WCS statistics follow [11] and cover
                    # multi-VM components.
                    if tag.component(tier).size > 1:
                        self.wcs.add(wcs)
            slot_fraction = 1.0 - ledger.free_slots_id(root_id) / total_slots
            self.utilization.append(
                UtilizationSample(slot_fraction, ledger.server_bandwidth_fraction())
            )

        return record

    @property
    def mean_slot_utilization(self) -> float:
        """Average slot occupancy across the run's samples (Fig. 11 text:
        "guaranteeing WCS may decrease datacenter utilization")."""
        if not self.utilization:
            return 0.0
        return float(np.mean([s.slot_fraction for s in self.utilization]))

    @property
    def mean_bandwidth_utilization(self) -> float:
        if not self.utilization:
            return 0.0
        return float(
            np.mean([s.bandwidth_fraction for s in self.utilization])
        )

    @property
    def tenant_rejection_rate(self) -> float:
        return self.tenants_rejected / self.tenants_total if self.tenants_total else 0.0

    @property
    def vm_rejection_rate(self) -> float:
        return self.vms_rejected / self.vms_total if self.vms_total else 0.0

    @property
    def bw_rejection_rate(self) -> float:
        return self.bw_rejected / self.bw_total if self.bw_total else 0.0

