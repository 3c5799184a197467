"""Metrics collected by the admission simulations (paper §5.1).

The evaluation reports three rejection metrics — fraction of rejected
tenants, of rejected VMs, and of rejected aggregate bandwidth, each
relative to the totals over all arrivals — plus per-component worst-case
survivability (WCS) statistics and per-level reserved bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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

