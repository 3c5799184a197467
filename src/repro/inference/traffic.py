"""Synthesize VM-level traffic matrices from a ground-truth TAG (§3).

The paper's TAG-inference experiment starts from raw VM-to-VM traffic
matrices (a time series, to capture statistical multiplexing).  The real
input was the bing.com dataset; we synthesize equivalent traces from
ground-truth TAGs:

* each TAG edge's aggregate bandwidth is spread across the VM pairs of the
  two tiers with Dirichlet-distributed weights per epoch — the imperfect,
  time-varying load balancing of §2.2 ("runtime load balancers ... do not
  guarantee perfectly uniform load distribution"),
* optional background noise adds small random VM-to-VM flows that cross
  component boundaries, making the clustering problem realistically hard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tag import Tag
from repro.errors import InferenceError

__all__ = ["TrafficTrace", "synthesize_trace"]


@dataclass(frozen=True)
class TrafficTrace:
    """A VM-level traffic time series with ground-truth labels.

    ``matrices`` is a list of (N x N) arrays, entry [i, j] = Mbps sent
    from VM i to VM j during that epoch.  ``labels`` holds each VM's
    ground-truth component index; ``tier_names`` maps index -> tier name.
    """

    matrices: tuple[np.ndarray, ...]
    labels: tuple[int, ...]
    tier_names: tuple[str, ...]

    @property
    def num_vms(self) -> int:
        return len(self.labels)

    @property
    def mean_matrix(self) -> np.ndarray:
        return np.mean(self.matrices, axis=0)


def synthesize_trace(
    tag: Tag,
    *,
    epochs: int = 8,
    imbalance: float = 2.0,
    noise_fraction: float = 0.02,
    seed: int = 0,
) -> TrafficTrace:
    """Generate a traffic trace consistent with ``tag``.

    ``imbalance`` is the Dirichlet concentration: lower = more skewed
    load balancing.  ``noise_fraction`` scales cross-component background
    chatter relative to the mean structured rate.
    """
    if epochs < 1:
        raise InferenceError("need at least one epoch")
    if imbalance <= 0:
        raise InferenceError("imbalance (Dirichlet concentration) must be > 0")
    rng = np.random.default_rng(seed)
    tiers = tag.internal_components()
    if not tiers:
        raise InferenceError("TAG has no internal components to trace")
    tier_names = tuple(c.name for c in tiers)
    offsets: dict[str, int] = {}
    labels: list[int] = []
    total = 0
    for index, component in enumerate(tiers):
        assert component.size is not None
        offsets[component.name] = total
        labels.extend([index] * component.size)
        total += component.size

    matrices = [np.zeros((total, total)) for _ in range(epochs)]
    for edge in tag.iter_edges():
        src = tag.component(edge.src)
        dst = tag.component(edge.dst)
        if src.external or dst.external:
            continue
        aggregate = tag.edge_aggregate(edge)
        if aggregate <= 0:
            continue
        pairs = _edge_pairs(tag, edge, offsets)
        if not pairs:
            continue
        # One edge's pairs are distinct cells, so the fancy-indexed add
        # gives each cell the same single double add a per-pair loop did.
        rows, cols = np.array(pairs).T
        alpha = np.full(len(pairs), imbalance)
        for matrix in matrices:
            matrix[rows, cols] += aggregate * rng.dirichlet(alpha)

    mean_rate = float(np.mean([m.sum() for m in matrices])) / max(total, 1)
    if noise_fraction > 0 and total > 1:
        for matrix in matrices:
            noise = rng.random((total, total)) < 0.05
            np.fill_diagonal(noise, False)
            matrix += noise * rng.exponential(
                noise_fraction * mean_rate, size=(total, total)
            )
    return TrafficTrace(
        matrices=tuple(matrices),
        labels=tuple(labels),
        tier_names=tier_names,
    )


def _edge_pairs(
    tag: Tag, edge, offsets: dict[str, int]
) -> list[tuple[int, int]]:
    src = tag.component(edge.src)
    dst = tag.component(edge.dst)
    assert src.size is not None and dst.size is not None
    src_base = offsets[edge.src]
    dst_base = offsets[edge.dst]
    if edge.is_self_loop:
        return [
            (src_base + i, src_base + j)
            for i in range(src.size)
            for j in range(src.size)
            if i != j
        ]
    return [
        (src_base + i, dst_base + j)
        for i in range(src.size)
        for j in range(dst.size)
    ]
