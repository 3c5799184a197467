"""Tests for the topology tree and builders."""

from __future__ import annotations

import math

import pytest

from repro.errors import TopologyError
from repro.topology.builder import DatacenterSpec, paper_datacenter, three_level_tree
from repro.topology.tree import Node, Topology, TopologyBuilder
from tests.fabrics import level_nodes, servers_under, single_rack


class TestNode:
    def test_server_needs_slots(self):
        with pytest.raises(TopologyError):
            Node(0, "srv", 0, 0, 10.0, 10.0)

    def test_switch_cannot_have_slots(self):
        with pytest.raises(TopologyError):
            Node(0, "sw", 1, 4, 10.0, 10.0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(TopologyError):
            Node(0, "srv", 0, 1, -1.0, 10.0)

    def test_nominal_defaults_to_capacity(self):
        node = Node(0, "srv", 0, 1, 10.0, 20.0)
        assert node.nominal_up == 10.0
        assert node.nominal_down == 20.0


class TestTopologyValidation:
    def test_switch_without_children_rejected(self):
        builder = TopologyBuilder()
        lonely = builder.switch("sw", 1)
        with pytest.raises(TopologyError):
            Topology(lonely)

    def test_level_gap_rejected(self):
        builder = TopologyBuilder()
        root = builder.switch("root", 3)
        server = Node(9, "srv", 0, 1, 1.0, 1.0)
        TopologyBuilder.attach(root, server)
        with pytest.raises(TopologyError):
            Topology(root)

    def test_double_attach_rejected(self):
        builder = TopologyBuilder()
        a = builder.switch("a", 1)
        b = builder.switch("b", 1)
        server = Node(9, "srv", 0, 1, 1.0, 1.0)
        TopologyBuilder.attach(a, server)
        with pytest.raises(TopologyError):
            TopologyBuilder.attach(b, server)


class TestTopologyQueries:
    def test_shape(self, small_datacenter):
        assert len(small_datacenter.servers) == 128
        assert small_datacenter.total_slots == 512
        assert small_datacenter.num_levels == 4
        assert len(level_nodes(small_datacenter, 1)) == 8
        assert len(level_nodes(small_datacenter, 2)) == 2

    def test_path_up_and_ancestors(self, small_datacenter):
        flat = small_datacenter.flat
        server_id = small_datacenter.servers[0].node_id
        assert [flat.level[i] for i in flat.path_up[server_id]] == [0, 1, 2]
        assert flat.ancestors[server_id][-1] == small_datacenter.root.node_id

    def test_servers_under(self, small_datacenter):
        tor = level_nodes(small_datacenter, 1)[0]
        servers = list(servers_under(small_datacenter, tor))
        assert len(servers) == 16
        assert all(s.is_server for s in servers)

    def test_subtree_slots(self, small_datacenter):
        subtree_slots = small_datacenter.flat.subtree_slots
        assert subtree_slots[level_nodes(small_datacenter, 1)[0].node_id] == 64
        assert subtree_slots[small_datacenter.root.node_id] == 512

    def test_node_lookup(self, small_datacenter):
        root = small_datacenter.root
        assert small_datacenter.node(root.node_id) is root
        with pytest.raises(TopologyError):
            small_datacenter.node(10**9)

    def test_describe_mentions_servers(self, small_datacenter):
        assert "128 servers" in small_datacenter.describe()


class TestDatacenterSpec:
    def test_paper_numbers(self):
        spec = DatacenterSpec()
        assert spec.num_servers == 2048
        # 32 x 10G / 4 = 80G ToR uplink, 8 x 80G / 8 = 80G agg uplink.
        assert spec.tor_uplink == pytest.approx(80_000.0)
        assert spec.agg_uplink == pytest.approx(80_000.0)
        assert spec.total_oversubscription == pytest.approx(32.0)

    def test_validation(self):
        with pytest.raises(TopologyError):
            DatacenterSpec(pods=0)
        with pytest.raises(TopologyError):
            DatacenterSpec(tor_oversub=0.5)

    def test_unlimited_keeps_nominals(self):
        topo = three_level_tree(DatacenterSpec(pods=1), unlimited=True)
        server = topo.servers[0]
        assert math.isinf(server.uplink_up)
        assert server.nominal_up == pytest.approx(10_000.0)
        tor = level_nodes(topo, 1)[0]
        assert math.isinf(tor.uplink_up)
        assert tor.nominal_up == pytest.approx(80_000.0)

    def test_paper_datacenter_scaling(self):
        topo = paper_datacenter(scale=0.25)
        assert len(topo.servers) == 512
        with pytest.raises(TopologyError):
            paper_datacenter(scale=0.0)

    def test_single_rack(self):
        topo = single_rack(servers=3, slots_per_server=2)
        assert len(topo.servers) == 3
        assert topo.root.level == 1
