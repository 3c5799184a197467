"""Core TAG abstraction and bandwidth mathematics (paper §3, §4.1-4.2)."""

from repro._lazy import lazy_exports

__all__ = [
    "BandwidthDemand",
    "CONVERGENCE_EPSILON",
    "Component",
    "EPSILON",
    "Tag",
    "TagEdge",
    "achieved_wcs",
    "hose_requirement",
    "hose_saving_possible",
    "tag_from_dict",
    "tag_from_json",
    "tag_to_dict",
    "tag_to_json",
    "trunk_saving",
    "trunk_saving_possible",
    "uplink_requirement",
    "wcs_cap",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.bandwidth": (
        "BandwidthDemand", "achieved_wcs", "hose_requirement", "hose_saving_possible",
        "trunk_saving", "trunk_saving_possible", "uplink_requirement", "wcs_cap",
    ),
    "repro.core.constants": ("CONVERGENCE_EPSILON", "EPSILON"),
    "repro.core.serialize": (
        "tag_from_dict", "tag_from_json", "tag_to_dict", "tag_to_json",
    ),
    "repro.core.tag": ("Component", "Tag", "TagEdge"),
})
