"""VM placement algorithms: CloudMirror, Oktopus (VOC), SecondNet (pipe)."""

from repro._lazy import lazy_exports

__all__ = [
    "CandidateIndex",
    "CloudMirrorPlacer",
    "DemandEstimator",
    "HaPolicy",
    "OktopusPlacer",
    "PipeAllocation",
    "Placement",
    "PlacementResult",
    "Placer",
    "Rejection",
    "SecondNetPlacer",
    "TenantAllocation",
    "allocation_wcs",
    "saving_desirable",
    "tier_cap_left",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.placement.base": ("Placement", "PlacementResult", "Placer", "Rejection"),
    "repro.placement.candidates": ("CandidateIndex",),
    "repro.placement.cloudmirror": ("CloudMirrorPlacer",),
    "repro.placement.ha": (
        "DemandEstimator", "HaPolicy", "allocation_wcs", "saving_desirable",
        "tier_cap_left",
    ),
    "repro.placement.oktopus": ("OktopusPlacer",),
    "repro.placement.secondnet": ("PipeAllocation", "SecondNetPlacer"),
    "repro.placement.state": ("TenantAllocation",),
})
