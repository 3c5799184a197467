"""Datacenter tree topologies and the reservation ledger substrate."""

from repro._lazy import lazy_exports

__all__ = [
    "SERVER_LEVEL",
    "DatacenterSpec",
    "FailureMask",
    "FlatTopology",
    "Journal",
    "Ledger",
    "Node",
    "PodSpec",
    "RackSpec",
    "Topology",
    "TopologyBuilder",
    "heterogeneous_from_spec",
    "heterogeneous_tree",
    "multi_rooted_tree",
    "paper_datacenter",
    "three_level_tree",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.topology.builder": (
        "DatacenterSpec", "PodSpec", "RackSpec", "heterogeneous_from_spec",
        "heterogeneous_tree", "multi_rooted_tree", "paper_datacenter", "three_level_tree",
    ),
    "repro.topology.failures": ("FailureMask",),
    "repro.topology.flat": ("FlatTopology",),
    "repro.topology.ledger": ("Journal", "Ledger"),
    "repro.topology.tree": ("SERVER_LEVEL", "Node", "Topology", "TopologyBuilder"),
})
