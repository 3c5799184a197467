"""Tests for the multi-rooted tree support (§4)."""

from __future__ import annotations

import pytest

from repro.core.tag import Tag
from repro.errors import TopologyError
from repro.placement.base import Placement
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.topology.builder import DatacenterSpec, multi_rooted_tree, three_level_tree
from repro.topology.ledger import Ledger
from tests.fabrics import level_nodes

SPEC = DatacenterSpec(
    servers_per_rack=8,
    racks_per_pod=4,
    pods=2,
    slots_per_server=4,
    server_uplink=1000.0,
    tor_oversub=4.0,
    agg_oversub=4.0,
)


class TestMultiRootedTree:
    def test_aggregate_core_capacity(self):
        single = three_level_tree(SPEC)
        quad = multi_rooted_tree(SPEC, cores=4)
        single_agg = level_nodes(single, 2)[0]
        quad_agg = level_nodes(quad, 2)[0]
        assert quad_agg.uplink_up == pytest.approx(4 * single_agg.uplink_up)

    def test_same_shape_below_core(self):
        single = three_level_tree(SPEC)
        quad = multi_rooted_tree(SPEC, cores=4)
        assert len(quad.servers) == len(single.servers)
        assert quad.total_slots == single.total_slots

    def test_one_core_is_identity(self):
        single = three_level_tree(SPEC)
        one = multi_rooted_tree(SPEC, cores=1)
        assert level_nodes(one, 2)[0].uplink_up == pytest.approx(
            level_nodes(single, 2)[0].uplink_up
        )

    def test_validation(self):
        with pytest.raises(TopologyError):
            multi_rooted_tree(SPEC, cores=0)

    def test_oversub_floor_at_one(self):
        quad = multi_rooted_tree(SPEC, cores=16)  # 4/16 < 1 -> floor at 1
        agg = level_nodes(quad, 2)[0]
        tor = level_nodes(quad, 1)[0]
        assert agg.uplink_up == pytest.approx(SPEC.racks_per_pod * tor.uplink_up)

    def test_placement_admits_more_cross_pod_traffic(self):
        """Extra core capacity admits inter-pod-heavy tenants the
        single-rooted topology rejects."""
        def tenant(i: int) -> Tag:
            tag = Tag(f"t{i}")
            tag.add_component("a", 32)  # one full rack worth
            tag.add_component("b", 32)
            tag.add_edge("a", "b", 180.0, 180.0)
            tag.add_edge("b", "a", 180.0, 180.0)
            return tag

        def admitted(topology) -> int:
            ledger = Ledger(topology)
            placer = CloudMirrorPlacer(ledger)
            count = 0
            for i in range(8):
                if isinstance(placer.place(tenant(i)), Placement):
                    count += 1
            return count

        single = admitted(three_level_tree(SPEC))
        multi = admitted(multi_rooted_tree(SPEC, cores=4))
        assert multi >= single
