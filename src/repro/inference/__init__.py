"""TAG inference from raw VM-level traffic (paper §3)."""

from repro._lazy import lazy_exports

__all__ = [
    "TrafficTrace",
    "ami",
    "build_tag_from_trace",
    "entropy",
    "expected_mutual_information",
    "feature_vectors",
    "infer_components",
    "infer_tag",
    "louvain_communities",
    "mutual_information",
    "projection_graph",
    "synthesize_trace",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.inference.ami": (
        "ami", "entropy", "expected_mutual_information", "mutual_information",
    ),
    "repro.inference.builder": (
        "build_tag_from_trace", "infer_components", "infer_tag",
    ),
    "repro.inference.louvain": ("louvain_communities",),
    "repro.inference.similarity": ("feature_vectors", "projection_graph"),
    "repro.inference.traffic": ("TrafficTrace", "synthesize_trace"),
})
