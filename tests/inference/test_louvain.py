"""Tests for the from-scratch Louvain implementation."""

from __future__ import annotations

import pytest

from repro.errors import InferenceError
from repro.inference.louvain import louvain_communities
from tests.inference.modularity import modularity


def two_cliques(size: int = 5, bridge: float = 0.05):
    graph = {}
    for i in range(size):
        for j in range(i + 1, size):
            graph[(i, j)] = 1.0
            graph[(i + size, j + size)] = 1.0
    graph[(0, size)] = bridge
    return graph, 2 * size


class TestLouvain:
    def test_two_cliques_split(self):
        graph, n = two_cliques()
        labels = louvain_communities(graph, n, seed=0)
        assert len(set(labels)) == 2
        assert len(set(labels[:5])) == 1
        assert len(set(labels[5:])) == 1

    def test_three_cliques(self):
        graph = {}
        for block in range(3):
            base = block * 4
            for i in range(4):
                for j in range(i + 1, 4):
                    graph[(base + i, base + j)] = 1.0
        graph[(0, 4)] = 0.01
        graph[(4, 8)] = 0.01
        labels = louvain_communities(graph, 12, seed=1)
        assert len(set(labels)) == 3

    def test_empty_graph_one_community_each(self):
        labels = louvain_communities({}, 4, seed=0)
        assert len(labels) == 4

    def test_labels_dense(self):
        graph, n = two_cliques()
        labels = louvain_communities(graph, n, seed=0)
        assert set(labels) == set(range(len(set(labels))))

    def test_seed_determinism(self):
        graph, n = two_cliques()
        assert louvain_communities(graph, n, seed=7) == louvain_communities(
            graph, n, seed=7
        )

    def test_validation(self):
        with pytest.raises(InferenceError):
            louvain_communities({(0, 5): 1.0}, 2)
        with pytest.raises(InferenceError):
            louvain_communities({(0, 1): -1.0}, 2)
        with pytest.raises(InferenceError):
            louvain_communities({}, 0)


class TestModularity:
    def test_good_split_beats_bad_split(self):
        graph, n = two_cliques()
        good = [0] * 5 + [1] * 5
        bad = [0, 1] * 5
        assert modularity(graph, good, n) > modularity(graph, bad, n)

    def test_single_community_zero_ish(self):
        graph, n = two_cliques(bridge=1.0)
        labels = [0] * n
        # Q of the all-in-one labelling is 0 for gamma=1 up to the
        # degree-squared term: intra/2m = 1, minus (2m/2m)^2 = 1.
        assert modularity(graph, labels, n) == pytest.approx(0.0, abs=1e-9)

    def test_louvain_maximizes_over_random(self):
        import random

        graph, n = two_cliques()
        labels = louvain_communities(graph, n, seed=0)
        best = modularity(graph, labels, n)
        rng = random.Random(0)
        for _ in range(20):
            random_labels = [rng.randrange(3) for _ in range(n)]
            assert modularity(graph, random_labels, n) <= best + 1e-9
