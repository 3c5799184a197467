"""Build a TAG from clustered traffic matrices (§3 "Producing TAG Models").

"The TAG model is formed by treating each cluster as a component and using
the traffic matrix bandwidths to identify all hose and trunk guarantees.
When identifying these guarantees, we use a time series of traffic
matrices to factor in savings from statistical multiplexing."

Guarantee extraction follows the TAG semantics directly: for the trunk
``u -> v``, ``S_e`` must cover each u-VM's *aggregate* send rate toward v
at any epoch (the peak of the sum — not the sum of per-destination peaks,
which is the pipe model's statistical-multiplexing penalty), and ``R_e``
symmetrically.  Self-loop hoses come from intra-cluster rows/columns.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.tag import Tag
from repro.errors import InferenceError
from repro.inference.louvain import louvain_communities
from repro.inference.similarity import projection_graph
from repro.inference.traffic import TrafficTrace

__all__ = ["infer_components", "build_tag_from_trace", "infer_tag"]

# Mbps: a peak at or below this is no traffic, so no guarantee.
_MIN_GUARANTEE = 1e-9


def infer_components(trace: TrafficTrace, *, seed: int = 0) -> list[int]:
    """Cluster VMs by communication similarity (projection graph + Louvain)."""
    graph = projection_graph(trace.mean_matrix)
    return louvain_communities(graph, trace.num_vms, seed=seed)


def build_tag_from_trace(
    trace: TrafficTrace,
    labels: Sequence[int],
    *,
    name: str = "inferred",
) -> Tag:
    """Extract hose and trunk guarantees for a given clustering."""
    if len(labels) != trace.num_vms:
        raise InferenceError("labels must cover every VM in the trace")
    clusters = sorted(set(labels))
    members = {c: [i for i, l in enumerate(labels) if l == c] for c in clusters}
    tag = Tag(name)
    for cluster in clusters:
        tag.add_component(f"cluster{cluster}", size=len(members[cluster]))
    for u in clusters:
        for v in clusters:
            rows = members[u]
            cols = members[v]
            # Per-epoch per-VM aggregate rates (peak-of-sums).
            send_peak = 0.0
            recv_peak = 0.0
            for matrix in trace.matrices:
                block = matrix[np.ix_(rows, cols)]
                if u == v:
                    np.fill_diagonal(block, 0.0)
                send_peak = max(send_peak, float(block.sum(axis=1).max(initial=0.0)))
                recv_peak = max(recv_peak, float(block.sum(axis=0).max(initial=0.0)))
            if u == v:
                guarantee = max(send_peak, recv_peak)
                if guarantee > _MIN_GUARANTEE and len(rows) > 1:
                    tag.add_self_loop(f"cluster{u}", guarantee)
            elif send_peak > _MIN_GUARANTEE or recv_peak > _MIN_GUARANTEE:
                tag.add_edge(
                    f"cluster{u}",
                    f"cluster{v}",
                    send=send_peak,
                    recv=recv_peak,
                )
    return tag


def infer_tag(trace: TrafficTrace, *, seed: int = 0) -> Tag:
    """End-to-end §3 pipeline: cluster, then extract guarantees."""
    labels = infer_components(trace, seed=seed)
    return build_tag_from_trace(trace, labels)
