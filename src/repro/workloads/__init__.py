"""Workload substrates: tenant pools, patterns, scaling, survey data."""

from repro._lazy import lazy_exports

__all__ = [
    "DATACENTERS",
    "WORKLOADS",
    "DatacenterProvision",
    "WorkloadRatio",
    "bing_pool",
    "datacenter_ratios",
    "hpcloud_pool",
    "patterns",
    "pool_scale_factor",
    "pool_statistics",
    "scale_pool",
    "synthetic_pool",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.bing": ("bing_pool", "pool_statistics"),
    "repro.workloads.hpcloud": ("hpcloud_pool",),
    "repro.workloads.scaling": ("pool_scale_factor", "scale_pool"),
    "repro.workloads.survey": (
        "DATACENTERS", "WORKLOADS", "DatacenterProvision", "WorkloadRatio",
        "datacenter_ratios",
    ),
    "repro.workloads.synthetic": ("synthetic_pool",),
})
