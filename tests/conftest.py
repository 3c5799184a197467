"""Shared fixtures: canonical paper examples and small topologies."""

from __future__ import annotations

import pytest

from repro import _kernels
from repro.core.tag import Tag
from repro.topology.builder import DatacenterSpec, single_rack, three_level_tree
from repro.topology.ledger import Ledger


@pytest.fixture(params=_kernels.available_backends())
def backend(request):
    """Run the test under every kernel backend this checkout can load."""
    previous = _kernels.backend
    _kernels.use_backend(request.param)
    try:
        yield request.param
    finally:
        _kernels.use_backend(previous)


@pytest.fixture
def three_tier_tag() -> Tag:
    """The Fig. 2(a) web application: web -> logic -> db with a DB hose."""
    tag = Tag("web-app")
    tag.add_component("web", 4)
    tag.add_component("logic", 4)
    tag.add_component("db", 4)
    tag.add_undirected_edge("web", "logic", 500.0, 500.0)
    tag.add_undirected_edge("logic", "db", 100.0, 100.0)
    tag.add_self_loop("db", 50.0)
    return tag


@pytest.fixture
def storm_tag() -> Tag:
    """The Fig. 3(a) Storm pipeline (no intra-component traffic)."""
    tag = Tag("storm")
    for name in ("spout1", "bolt1", "bolt2", "bolt3"):
        tag.add_component(name, 3)
    tag.add_edge("spout1", "bolt1", 10.0, 10.0)
    tag.add_edge("spout1", "bolt2", 10.0, 10.0)
    tag.add_edge("bolt2", "bolt3", 10.0, 10.0)
    return tag


@pytest.fixture
def small_datacenter():
    """A 128-server capacitated datacenter (2 pods of 4 racks of 16)."""
    spec = DatacenterSpec(
        servers_per_rack=16,
        racks_per_pod=4,
        pods=2,
        slots_per_server=4,
        server_uplink=1000.0,
        tor_oversub=4.0,
        agg_oversub=2.0,
    )
    return three_level_tree(spec)


@pytest.fixture
def small_ledger(small_datacenter) -> Ledger:
    return Ledger(small_datacenter)


@pytest.fixture
def rack_topology():
    """The Fig. 6 rack: 4 servers x 2 slots, 10 Mbps NICs."""
    return single_rack(servers=4, slots_per_server=2, nic_mbps=10.0)
