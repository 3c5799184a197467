"""Tests for the workload pools against the paper's published statistics."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError, TagError
from repro.workloads import patterns
from repro.workloads.bing import bing_pool, pool_statistics
from repro.workloads.hpcloud import hpcloud_pool
from repro.workloads.scaling import pool_scale_factor, scale_pool
from repro.workloads.synthetic import synthetic_pool


class TestPatterns:
    def test_three_tier_structure(self):
        tag = patterns.three_tier("t", (4, 4, 4), 500.0, 100.0, 50.0)
        assert tag.num_tiers == 3
        assert tag.edge("web", "logic").send == 500.0
        assert tag.self_loop("db").send == 50.0

    def test_storm_matches_fig3(self):
        tag = patterns.storm("s", size=3, bandwidth=10.0)
        assert tag.num_tiers == 4
        out, _ = tag.per_vm_demand("spout1")
        assert out == pytest.approx(20.0)  # feeds two bolts at B each
        assert all(tag.self_loop(t) is None for t in tag.tier_sizes())

    def test_linear_chain_validation(self):
        with pytest.raises(TagError):
            patterns.linear_chain("l", [2, 2, 2], [1.0])

    def test_ring_needs_three_tiers(self):
        with pytest.raises(TagError):
            patterns.ring("r", [2, 2], [1.0, 1.0])

    def test_ring_wraps_around(self):
        tag = patterns.ring("r", [1, 1, 1], [1.0, 2.0, 3.0])
        assert tag.edge("tier2", "tier0").send == 3.0

    def test_mesh_all_pairs(self):
        tag = patterns.mesh("m", [1, 1, 1, 1], 5.0)
        inter = [e for e in tag.iter_edges() if not e.is_self_loop]
        assert len(inter) == 12  # 6 undirected pairs x 2 directions

    def test_star_one_bw_per_leaf(self):
        with pytest.raises(TagError):
            patterns.star("s", 2, [1, 1], [1.0])

    def test_mapreduce_receiver_balance(self):
        tag = patterns.mapreduce("mr", 8, 2, shuffle_bw=10.0)
        edge = tag.edge("map", "reduce")
        # Reducers must absorb the mappers' aggregate: R = S * M / R_count.
        assert edge.recv == pytest.approx(40.0)
        assert tag.edge_aggregate(edge) == pytest.approx(80.0)


class TestBingPool:
    def test_published_statistics(self):
        stats = pool_statistics(bing_pool())
        assert stats["tenants"] == 80
        assert 50 <= stats["mean_size"] <= 65  # paper: 57
        assert stats["max_size"] == 732
        assert stats["over_200"] >= 3
        # Paper: ~91% per-component inter fraction (85% w/o management).
        assert stats["mean_inter_fraction"] >= 0.80
        assert stats["total_inter_fraction"] >= 0.6

    def test_deterministic(self):
        a = bing_pool(seed=5)
        b = bing_pool(seed=5)
        assert [t.size for t in a] == [t.size for t in b]
        assert [len(t.edges) for t in a] == [len(t.edges) for t in b]

    def test_different_seeds_differ(self):
        a = bing_pool(seed=1)
        b = bing_pool(seed=2)
        assert [t.size for t in a] != [t.size for t in b]

    def test_every_tenant_placeable_shape(self):
        for tag in bing_pool():
            assert tag.size >= 1
            assert tag.num_tiers >= 1
            for component in tag.internal_components():
                assert component.size >= 1


class TestOtherPools:
    def test_hpcloud_small_tenants(self):
        pool = hpcloud_pool()
        assert len(pool) == 60
        assert max(t.size for t in pool) <= 60

    def test_synthetic_mixes_kinds(self):
        pool = synthetic_pool()
        kinds = {t.name.split("-")[0] for t in pool}
        assert kinds == {"web", "batch", "storm"}


class TestScaling:
    def test_scale_pool_hits_bmax(self):
        pool = bing_pool()
        scaled = scale_pool(pool, 800.0)
        peak = max(t.mean_per_vm_demand() for t in scaled)
        assert peak == pytest.approx(800.0)

    def test_single_common_factor(self):
        pool = bing_pool()
        factor = pool_scale_factor(pool, 800.0)
        scaled = scale_pool(pool, 800.0)
        for before, after in zip(pool, scaled):
            assert after.mean_per_vm_demand() == pytest.approx(
                before.mean_per_vm_demand() * factor
            )

    def test_validation(self):
        with pytest.raises(SimulationError):
            scale_pool([], 800.0)
        with pytest.raises(SimulationError):
            scale_pool(bing_pool(), 0.0)
