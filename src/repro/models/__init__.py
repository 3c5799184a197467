"""Baseline tenant-network abstractions: hose, VOC, pipe (paper §2.2)."""

from repro._lazy import lazy_exports

__all__ = [
    "HoseModel",
    "Pipe",
    "PipeSet",
    "pipe_expansion",
    "VocCluster",
    "VocModel",
    "hose_from_tag",
    "hose_uplink_requirement",
    "pipe_tag_from_tag",
    "pipes_from_tag",
    "vm_name",
    "voc_from_tag",
    "voc_uplink_requirement",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.models.hose": (
        "HoseModel", "hose_from_tag", "hose_uplink_requirement",
    ),
    "repro.models.pipe": (
        "Pipe", "PipeSet", "pipe_expansion", "pipe_tag_from_tag", "pipes_from_tag",
        "vm_name",
    ),
    "repro.models.voc": (
        "VocCluster", "VocModel", "voc_from_tag", "voc_uplink_requirement",
    ),
})
