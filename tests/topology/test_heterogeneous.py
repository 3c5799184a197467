"""Heterogeneous / multi-rooted builders and the rack-index capacity fix."""

from __future__ import annotations

import math

import pytest

from repro.errors import TopologyError
from repro.simulation.arrivals import Arrival
from repro.simulation.runner import PLACER_NAMES, make_placer
from repro.simulation.service import ServiceLoop
from repro.topology.builder import (
    DatacenterSpec,
    PodSpec,
    RackSpec,
    fat_tree,
    heterogeneous_from_spec,
    heterogeneous_tree,
    three_level_tree,
)
from repro.topology.ledger import Journal, Ledger
from repro.workloads.scaling import scale_pool
from repro.workloads.synthetic import synthetic_pool
from tests.placement.scan_candidates import scan_unless_indexed

SPEC = DatacenterSpec(
    servers_per_rack=4,
    racks_per_pod=3,
    pods=2,
    slots_per_server=4,
    server_uplink=1000.0,
    tor_oversub=4.0,
    agg_oversub=2.0,
)


# ----------------------------------------------------------------------
# spec validation and derived uplinks
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"servers": 0},
        {"slots_per_server": 0},
        {"server_uplink": 0.0},
        {"tor_oversub": 0.5},
        {"tor_uplink": -1.0},
    ],
)
def test_rack_spec_rejects_bad_values(kwargs):
    with pytest.raises(TopologyError):
        RackSpec(**kwargs)


def test_pod_spec_rejects_bad_values():
    with pytest.raises(TopologyError):
        PodSpec(racks=())
    with pytest.raises(TopologyError):
        PodSpec(racks=(RackSpec(),), agg_oversub=0.9)
    with pytest.raises(TopologyError):
        PodSpec(racks=(RackSpec(),), agg_uplink=0.0)


def test_effective_uplinks_derive_or_override():
    rack = RackSpec(servers=8, server_uplink=1000.0, tor_oversub=4.0)
    assert rack.effective_tor_uplink == 2000.0
    assert RackSpec(tor_uplink=123.0).effective_tor_uplink == 123.0
    assert math.isinf(RackSpec(server_uplink=math.inf).effective_tor_uplink)
    pod = PodSpec(racks=(rack, rack), agg_oversub=2.0)
    assert pod.effective_agg_uplink == 2000.0
    assert PodSpec(racks=(rack,), agg_uplink=77.0).effective_agg_uplink == 77.0


def test_heterogeneous_tree_needs_a_pod():
    with pytest.raises(TopologyError):
        heterogeneous_tree(())


# ----------------------------------------------------------------------
# builder structure
# ----------------------------------------------------------------------


def test_heterogeneous_tree_matches_symmetric_when_uniform():
    """Uniform racks through the hetero builder == three_level_tree."""
    rack = RackSpec(
        servers=SPEC.servers_per_rack,
        slots_per_server=SPEC.slots_per_server,
        server_uplink=SPEC.server_uplink,
        tor_oversub=SPEC.tor_oversub,
    )
    pods = tuple(
        PodSpec(racks=(rack,) * SPEC.racks_per_pod, agg_oversub=SPEC.agg_oversub)
        for _ in range(SPEC.pods)
    )
    hetero = heterogeneous_tree(pods)
    symmetric = three_level_tree(SPEC)
    assert [
        (n.node_id, n.name, n.level, n.slots, n.uplink_up)
        for n in hetero.nodes
    ] == [
        (n.node_id, n.name, n.level, n.slots, n.uplink_up)
        for n in symmetric.nodes
    ]


def test_heterogeneous_from_spec_mixes_rack_shapes():
    topology = heterogeneous_from_spec(SPEC, big_every=2)
    by_name = {node.name: node for node in topology.nodes}
    # Rack 0 is plain, rack 1 is dense (half servers, double everything).
    assert len(by_name["tor-0-0"].children) == 4
    assert len(by_name["tor-0-1"].children) == 2
    plain = by_name["srv-0-0-0"]
    dense = by_name["srv-0-1-0"]
    assert dense.slots == 2 * plain.slots
    assert dense.uplink_up == 2 * plain.uplink_up
    # Dense racks keep the same ToR oversubscription rule, so per-rack
    # ToR uplinks differ between shapes.
    assert by_name["tor-0-1"].uplink_up == by_name["tor-0-0"].uplink_up
    # Total slot capacity stays equal for even rack sizes.
    assert topology.total_slots == sum(
        server.slots for server in topology.servers
    )
    with pytest.raises(TopologyError):
        heterogeneous_from_spec(SPEC, big_every=0)


def test_fat_tree_shape_and_capacity():
    k = 4
    topology = fat_tree(k, slots_per_server=2, server_uplink=1000.0)
    assert len(topology.servers) == k**3 // 4
    aggs = topology.root.children
    assert len(aggs) == k
    for agg in aggs:
        assert agg.uplink_up == (k // 2) ** 2 * 1000.0
        assert len(agg.children) == k // 2
        for tor in agg.children:
            assert tor.uplink_up == (k // 2) * 1000.0
            assert len(tor.children) == k // 2
    with pytest.raises(TopologyError):
        fat_tree(3)
    with pytest.raises(TopologyError):
        fat_tree(0)


# ----------------------------------------------------------------------
# heterogeneous placement: index vs full-scan lockstep (the fixed
# asymmetry assumptions in CandidateIndex and the secondnet rack-cost
# dedup)
# ----------------------------------------------------------------------


def _run(topology, placer_name, use_index):
    """36 arrivals; arrival ``i`` leaves just before arrival ``4 i + 4``."""
    pool = scale_pool(list(synthetic_pool()), 0.5)
    ledger = Ledger(topology)
    placer = make_placer(placer_name, ledger)
    outcomes = []
    loop = ServiceLoop(
        ledger,
        placer,
        pool,
        collect_utilization=False,
        on_decision=lambda tag, allocation: outcomes.append(allocation is not None),
    )
    with scan_unless_indexed(placer, use_index):
        loop.run(Arrival(float(i), i % len(pool), 3.0 * i + 3.5) for i in range(36))
    layouts = [
        sorted(
            (server.name, tuple(sorted(counts.items())))
            for server, counts in allocation.iter_server_placements()
        )
        for allocation in loop.live()
    ]
    return outcomes, layouts


@pytest.mark.parametrize("placer_name", PLACER_NAMES)
@pytest.mark.parametrize(
    "builder",
    [
        lambda: heterogeneous_from_spec(SPEC),
        lambda: fat_tree(4, slots_per_server=4),
    ],
    ids=["hetero", "fat-tree"],
)
def test_heterogeneous_index_lockstep(placer_name, builder):
    topology = builder()
    topology.flat
    baseline = _run(topology, placer_name, use_index=False)
    indexed = _run(topology, placer_name, use_index=True)
    assert baseline == indexed, f"{placer_name}: hetero lockstep diverged"
    assert any(baseline[0])


def test_rack_repair_notices_capacity_flip():
    """Regression: the rack-list repair used to key on ``used`` alone.

    A failure drops a server's capacity with ``used`` unchanged; the
    repair shortcut must not treat that as a no-op.
    """
    topology = three_level_tree(SPEC)
    topology.flat
    ledger = Ledger(topology)
    index = ledger.ensure_candidate_index()
    index.track_racks()
    ids = {node.name: node.node_id for node in topology.nodes}
    rack_id, victim = ids["tor-0-0"], ids["srv-0-0-2"]
    assert victim in [entry[2] for entry in index.rack_candidates(rack_id)]
    mask = ledger.ensure_failure_mask()
    journal = Journal()
    mask.fail(victim, journal)
    assert victim not in [entry[2] for entry in index.rack_candidates(rack_id)]
    index.verify_racks()
    mask.restore(victim, journal)
    assert victim in [entry[2] for entry in index.rack_candidates(rack_id)]
    index.verify_racks()
    index.verify()
