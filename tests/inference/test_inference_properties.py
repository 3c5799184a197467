"""Property-based tests for the inference substrate (hypothesis)."""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.inference.ami import ami, entropy, mutual_information
from repro.inference.louvain import louvain_communities
from tests.inference.modularity import modularity

labellings = st.lists(st.integers(0, 4), min_size=2, max_size=40)


@given(labellings)
@settings(max_examples=150, deadline=None)
def test_ami_self_is_one_or_trivial(labels):
    score = ami(labels, labels)
    if len(set(labels)) == 1:
        assert score == 1.0
    else:
        assert score == 1.0 or math.isclose(score, 1.0, abs_tol=1e-9)


@given(labellings, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_ami_invariant_under_relabelling(labels, rng):
    names = list(set(labels))
    shuffled = list(names)
    rng.shuffle(shuffled)
    mapping = dict(zip(names, shuffled))
    relabelled = [mapping[label] for label in labels]
    assert math.isclose(
        ami(labels, relabelled), 1.0, abs_tol=1e-9
    )


@given(labellings, labellings)
@settings(max_examples=100, deadline=None)
def test_ami_symmetric(a, b):
    size = min(len(a), len(b))
    a, b = a[:size], b[:size]
    assert math.isclose(ami(a, b), ami(b, a), abs_tol=1e-9)


@given(labellings, labellings)
@settings(max_examples=100, deadline=None)
def test_mi_bounded_by_entropies(a, b):
    size = min(len(a), len(b))
    a, b = a[:size], b[:size]
    mi = mutual_information(a, b)
    assert mi <= min(entropy(a), entropy(b)) + 1e-9
    assert mi >= 0.0


@st.composite
def weighted_graphs(draw):
    nodes = draw(st.integers(2, 12))
    edges = {}
    for i in range(nodes):
        for j in range(i + 1, nodes):
            if draw(st.booleans()):
                edges[(i, j)] = draw(st.floats(0.01, 10.0, allow_nan=False))
    return nodes, edges


@given(weighted_graphs(), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_louvain_labels_valid_and_deterministic(case, seed):
    nodes, edges = case
    labels = louvain_communities(edges, nodes, seed=seed)
    assert len(labels) == nodes
    assert set(labels) == set(range(len(set(labels))))
    again = louvain_communities(edges, nodes, seed=seed)
    assert labels == again


@given(weighted_graphs())
@settings(max_examples=75, deadline=None)
def test_louvain_at_least_as_good_as_singletons(case):
    nodes, edges = case
    labels = louvain_communities(edges, nodes, seed=0)
    quality = modularity(edges, labels, nodes)
    singleton_quality = modularity(edges, list(range(nodes)), nodes)
    assert quality >= singleton_quality - 1e-9


def test_louvain_beats_random_partitions_on_planted_structure():
    """On a graph with planted communities, Louvain beats random labels.

    Deliberately *not* a universal hypothesis property: greedy Louvain
    only considers neighbouring communities during local moving, so on
    adversarial graphs it can settle in a local optimum (e.g. merging a
    path such as ``{(0,2): 2, (1,3): 3, (2,3): 4}`` into one block with
    Q = 0) that a lucky random 3-partition edges out.  On graphs with
    actual community structure — two dense cliques joined by one weak
    bridge — the greedy optimum dominates random labellings by a wide,
    deterministic margin.
    """
    edges: dict[tuple[int, int], float] = {}
    for block in (range(0, 6), range(6, 12)):
        members = list(block)
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                edges[(members[a], members[b])] = 5.0
    edges[(5, 6)] = 0.5  # weak bridge between the cliques
    nodes = 12
    labels = louvain_communities(edges, nodes, seed=0)
    quality = modularity(edges, labels, nodes)
    # The planted two-block partition is recovered (or matched).
    planted = [0] * 6 + [1] * 6
    assert quality >= modularity(edges, planted, nodes) - 1e-9
    for seed in range(100):
        rng = random.Random(seed)
        random_labels = [rng.randrange(3) for _ in range(nodes)]
        assert modularity(edges, random_labels, nodes) <= quality + 1e-9
