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
    "fat_tree",
    "heterogeneous_from_spec",
    "heterogeneous_tree",
    "multi_rooted_tree",
    "paper_datacenter",
    "pruned_topology",
    "single_rack",
    "three_level_tree",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.topology.builder": (
        "DatacenterSpec", "PodSpec", "RackSpec", "fat_tree", "heterogeneous_from_spec",
        "heterogeneous_tree", "multi_rooted_tree", "paper_datacenter", "single_rack",
        "three_level_tree",
    ),
    "repro.topology.failures": ("FailureMask", "pruned_topology"),
    "repro.topology.flat": ("FlatTopology",),
    "repro.topology.ledger": ("Journal", "Ledger"),
    "repro.topology.tree": ("SERVER_LEVEL", "Node", "Topology", "TopologyBuilder"),
})
