"""Feature vectors and the similarity projection graph (§3).

"For each VM, a feature vector is constructed based ... on the VM-to-VM
bandwidth weighted traffic matrix.  The feature vector includes the VM's
row and column entries, i.e., both outgoing and incoming traffic, and
similarity is computed as the angular distance between vectors.  A
projection graph is formed containing one vertex for each VM and edges
with weight set to the similarity between the VMs for the two incident
vertices."

One refinement is standard for this construction and used here: a VM's
own row/column entries toward the *candidate peer* are zeroed when
comparing two VMs, so that two VMs of the same tier (which talk to the
same third parties but not to each other in the same way) still look
similar.  Angular similarity is ``1 - arccos(cos) / pi`` in [0, 1].
"""

from __future__ import annotations

import numpy as np

from repro.errors import InferenceError

__all__ = ["feature_vectors", "angular_similarity", "projection_graph"]


def feature_vectors(matrix: np.ndarray) -> np.ndarray:
    """Per-VM features: the VM's traffic-matrix row and column, stacked."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InferenceError(f"traffic matrix must be square, got {matrix.shape}")
    return np.concatenate([matrix, matrix.T], axis=1)


def angular_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """``1 - angle(a, b)/pi``: 1 for parallel vectors, 0 for opposite."""
    norm = float(np.linalg.norm(a) * np.linalg.norm(b))
    if norm == 0.0:
        return 0.0
    cosine = float(np.clip(np.dot(a, b) / norm, -1.0, 1.0))
    return 1.0 - float(np.arccos(cosine)) / np.pi


def projection_graph(
    matrix: np.ndarray, *, mask_mutual: bool = True, threshold: float = 0.0
) -> dict[tuple[int, int], float]:
    """Build the weighted similarity graph over VMs.

    Returns ``{(i, j): weight}`` for i < j with weight above ``threshold``.
    ``mask_mutual`` applies the same-tier refinement described above.

    Vectorized: for the pair ``(i, j)`` the masked dot product equals the
    full dot product minus the contributions of the four zeroed positions
    ``{i, j, n+i, n+j}`` (they are distinct for i != j), and each masked
    norm drops exactly its own two positions — so the whole masked cosine
    matrix falls out of dense matrix algebra (see
    ``projection_graph_reference`` for the direct per-pair construction
    the tests compare against).
    """
    n = matrix.shape[0]
    features = feature_vectors(matrix)
    dots = features @ features.T
    if mask_mutual:
        # Correction: sum over p in {j, n+j, i, n+i} of F_i[p]*F_j[p],
        # where F_i[p] = matrix[i, p] for p < n and matrix[p-n, i] above.
        diag = np.diag(matrix)
        corrections = (
            matrix * diag[None, :]  # p = j:    F_i[j]   * F_j[j]
            + matrix.T * diag[None, :]  # p = n+j:  F_i[n+j] * F_j[n+j]
            + diag[:, None] * matrix.T  # p = i:    F_i[i]   * F_j[i]
            + diag[:, None] * matrix  # p = n+i:  F_i[n+i] * F_j[n+i]
        )
        dots = dots - corrections
        norms_sq = (features**2).sum(axis=1)
        # ||a||^2 = ||F_i||^2 - F_i[j]^2 - F_i[n+j]^2 pairwise (and the
        # symmetric expression for ||b||^2); both are [i, j]-indexed.
        a_norms_sq = norms_sq[:, None] - matrix**2 - (matrix.T) ** 2
        b_norms_sq = norms_sq[None, :] - (matrix.T) ** 2 - matrix**2
        denom = np.sqrt(np.maximum(a_norms_sq, 0.0)) * np.sqrt(
            np.maximum(b_norms_sq, 0.0)
        )
    else:
        norms = np.sqrt((features**2).sum(axis=1))
        denom = norms[:, None] * norms[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        cosine = np.where(denom > 0.0, dots / np.maximum(denom, 1e-300), 0.0)
    cosine = np.clip(cosine, -1.0, 1.0)
    weights = 1.0 - np.arccos(cosine) / np.pi
    weights = np.where(denom > 0.0, weights, 0.0)
    graph: dict[tuple[int, int], float] = {}
    for i, row in enumerate(weights.tolist()):
        for j in range(i + 1, n):
            weight = row[j]
            if weight > threshold:
                graph[(i, j)] = weight
    return graph


def projection_graph_reference(
    matrix: np.ndarray, *, mask_mutual: bool = True, threshold: float = 0.0
) -> dict[tuple[int, int], float]:
    """The direct per-pair construction (used to verify the vectorized one)."""
    n = matrix.shape[0]
    features = feature_vectors(matrix)
    graph: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            a = features[i]
            b = features[j]
            if mask_mutual:
                a = a.copy()
                b = b.copy()
                # Zero the entries that refer to each other (row block is
                # columns [0, n), column block is [n, 2n)).
                a[j] = a[n + j] = 0.0
                b[i] = b[n + i] = 0.0
            weight = angular_similarity(a, b)
            if weight > threshold:
                graph[(i, j)] = weight
    return graph
