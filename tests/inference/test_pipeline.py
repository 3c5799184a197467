"""Tests for traffic synthesis, similarity and the inference pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InferenceError
from repro.inference.ami import ami
from repro.inference.builder import build_tag_from_trace, infer_components, infer_tag
from repro.inference.similarity import feature_vectors, projection_graph
from repro.inference.traffic import synthesize_trace
from repro.workloads.patterns import three_tier


def projection_graph_reference(
    matrix: np.ndarray, *, mask_mutual: bool = True, threshold: float = 0.0
) -> dict[tuple[int, int], float]:
    """The direct per-pair construction the vectorized one must match."""
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
            norm = float(np.linalg.norm(a) * np.linalg.norm(b))
            if norm == 0.0:
                weight = 0.0
            else:
                cosine = float(np.clip(np.dot(a, b) / norm, -1.0, 1.0))
                weight = 1.0 - float(np.arccos(cosine)) / np.pi
            if weight > threshold:
                graph[(i, j)] = weight
    return graph


@pytest.fixture(scope="module")
def trace():
    return synthesize_trace(three_tier("t", (5, 5, 5), 100.0, 40.0, 20.0), seed=1)


class TestTrafficSynthesis:
    def test_shape_and_labels(self, trace):
        assert trace.num_vms == 15
        assert len(trace.matrices) == 8
        assert trace.labels == (0,) * 5 + (1,) * 5 + (2,) * 5
        assert trace.tier_names == ("web", "logic", "db")

    def test_aggregate_rates_match_tag(self):
        tag = three_tier("t", (4, 4, 4), 100.0, 40.0, 0.0)
        trace = synthesize_trace(tag, noise_fraction=0.0, seed=2)
        mean = trace.mean_matrix
        # Total web->logic traffic equals the edge aggregate min(4*100, 4*100).
        web_rows = range(0, 4)
        logic_cols = range(4, 8)
        total = mean[np.ix_(web_rows, logic_cols)].sum()
        assert total == pytest.approx(400.0, rel=1e-6)

    def test_no_self_traffic(self, trace):
        for matrix in trace.matrices:
            assert np.all(np.diag(matrix) == 0.0)

    def test_imbalance_spreads_load_unevenly(self):
        tag = three_tier("t", (4, 4, 4), 100.0, 0.0, 0.0)
        skewed = synthesize_trace(tag, imbalance=0.2, noise_fraction=0.0, seed=3)
        uniform = synthesize_trace(tag, imbalance=100.0, noise_fraction=0.0, seed=3)
        assert np.std(skewed.matrices[0]) > np.std(uniform.matrices[0])

    def test_validation(self):
        tag = three_tier("t", (2, 2, 2), 1.0, 1.0, 0.0)
        with pytest.raises(InferenceError):
            synthesize_trace(tag, epochs=0)
        with pytest.raises(InferenceError):
            synthesize_trace(tag, imbalance=0.0)


class TestSimilarity:
    def test_feature_vector_shape(self, trace):
        features = feature_vectors(trace.mean_matrix)
        assert features.shape == (15, 30)

    def test_same_tier_vms_most_similar(self, trace):
        graph = projection_graph(trace.mean_matrix)
        same = [w for (i, j), w in graph.items() if trace.labels[i] == trace.labels[j]]
        cross = [w for (i, j), w in graph.items() if trace.labels[i] != trace.labels[j]]
        assert np.mean(same) > np.mean(cross)

    def test_rejects_non_square(self):
        with pytest.raises(InferenceError):
            feature_vectors(np.zeros((3, 4)))


class TestInference:
    def test_components_recovered_reasonably(self, trace):
        labels = infer_components(trace, seed=0)
        assert ami(trace.labels, labels) > 0.3

    def test_build_tag_guarantees_cover_trace(self, trace):
        labels = list(trace.labels)  # perfect clustering
        tag = build_tag_from_trace(trace, labels)
        assert tag.size == trace.num_vms
        # With ground-truth labels the inferred per-VM guarantees must be
        # at least each VM's actual per-epoch aggregate rate.
        for matrix in trace.matrices:
            for vm in range(trace.num_vms):
                cluster = f"cluster{labels[vm]}"
                out, _ = tag.per_vm_demand(cluster)
                assert out >= matrix[vm].sum() - 1e-6

    def test_infer_tag_end_to_end(self, trace):
        tag = infer_tag(trace, seed=0)
        assert tag.size == trace.num_vms
        assert tag.num_tiers >= 2

    def test_labels_must_cover_vms(self, trace):
        with pytest.raises(InferenceError):
            build_tag_from_trace(trace, [0, 1])


class TestVectorizedSimilarity:
    """The vectorized projection graph must match the per-pair reference."""

    def test_equivalence_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = int(rng.integers(3, 20))
            matrix = rng.random((n, n)) * 50
            np.fill_diagonal(matrix, 0.0)
            matrix *= rng.random((n, n)) < 0.6
            for mask in (True, False):
                fast = projection_graph(matrix, mask_mutual=mask)
                ref = projection_graph_reference(matrix, mask_mutual=mask)
                assert set(fast) == set(ref)
                for key in ref:
                    assert fast[key] == pytest.approx(ref[key], abs=1e-9)

    def test_equivalence_on_trace(self, trace):
        fast = projection_graph(trace.mean_matrix)
        ref = projection_graph_reference(trace.mean_matrix)
        assert set(fast) == set(ref)
        for key in ref:
            assert fast[key] == pytest.approx(ref[key], abs=1e-9)
