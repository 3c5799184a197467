"""Lockstep churn equivalence: indexed vs index-free placement stacks.

The candidate index is a pure lookup accelerator — with it on or off,
every placer must make *bit-identical decisions* on every arrival,
rejection, rollback and departure.  These tests run the same
arrival/departure stream (loaded high enough to force rejections, whose
doomed attempts exercise journal rollback through the index) through
both configurations and compare placements, metrics and the full ledger
state arrays.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.placement.ha import HaPolicy
from repro.simulation.arrivals import poisson_arrivals
from repro.simulation.cluster import ClusterManager, run_arrival_departure
from repro.simulation.runner import PLACER_NAMES, make_placer
from repro.temporal.admission import TemporalCluster
from repro.temporal.profile import TemporalProfile, TemporalTag, diurnal_profile
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Ledger
from repro.workloads.scaling import scale_pool
from repro.workloads.synthetic import synthetic_pool

SPEC = DatacenterSpec(
    servers_per_rack=8,
    racks_per_pod=3,
    pods=2,
    slots_per_server=4,
    server_uplink=1000.0,
    tor_oversub=4.0,
    agg_oversub=2.0,
)

ARRIVALS = 120
LOAD = 1.1  # overloads the 192-slot datacenter -> rejections + rollbacks


@pytest.fixture(scope="module")
def workload():
    pool = scale_pool(list(synthetic_pool()), 0.5)
    topology = three_level_tree(SPEC)
    topology.flat
    events = poisson_arrivals(
        pool, ARRIVALS, LOAD, topology.total_slots, seed=3
    )
    return topology, pool, events


def churn_run(topology, pool, events, placer_name, *, ha=None, use_index):
    ledger = Ledger(topology)
    placer = make_placer(
        placer_name, ledger, ha, use_candidate_index=use_index
    )
    manager = ClusterManager(ledger, placer)
    metrics = run_arrival_departure(manager, events, pool)
    layouts = [
        sorted(
            (server.node_id, tuple(sorted(counts.items())))
            for server, counts in allocation.iter_server_placements()
        )
        for allocation in manager.active
    ]
    return metrics, layouts, ledger


def ledger_state(ledger):
    return (
        list(ledger._used_slots),
        list(ledger._free_subtree),
        list(ledger._used_up),
        list(ledger._used_down),
    )


def assert_lockstep(topology, pool, events, placer_name, ha=None):
    baseline = churn_run(
        topology, pool, events, placer_name, ha=ha, use_index=False
    )
    indexed = churn_run(
        topology, pool, events, placer_name, ha=ha, use_index=True
    )
    base_metrics = dataclasses.asdict(baseline[0])
    index_metrics = dataclasses.asdict(indexed[0])
    base_metrics.pop("runtime_seconds")
    index_metrics.pop("runtime_seconds")
    assert base_metrics == index_metrics, f"{placer_name}: metrics diverged"
    assert baseline[1] == indexed[1], f"{placer_name}: layouts diverged"
    assert ledger_state(baseline[2]) == ledger_state(indexed[2]), (
        f"{placer_name}: ledger state diverged"
    )
    # The high load must actually have exercised the rejection/rollback
    # path, or this test proves nothing.
    assert baseline[0].tenants_rejected > 0, "workload never rejected"


@pytest.mark.parametrize("placer_name", PLACER_NAMES)
def test_placer_churn_lockstep(workload, placer_name):
    topology, pool, events = workload
    assert_lockstep(topology, pool, events, placer_name)


@pytest.mark.parametrize(
    "ha",
    [
        HaPolicy(required_wcs=0.5, laa_level=0),
        HaPolicy(required_wcs=0.5, laa_level=1),
        HaPolicy(opportunistic=True),
    ],
    ids=["wcs50-server", "wcs50-tor", "opportunistic"],
)
def test_ha_churn_lockstep(workload, ha):
    topology, pool, events = workload
    assert_lockstep(topology, pool, events, "cm", ha=ha)


def _temporal_tenants():
    def web(scale):
        from repro.core.tag import Tag

        tag = Tag("web")
        tag.add_component("front", 6)
        tag.add_component("back", 6)
        tag.add_edge("front", "back", 150.0 * scale, 150.0 * scale)
        tag.add_edge("back", "front", 150.0 * scale, 150.0 * scale)
        return tag

    day = diurnal_profile(6, peak_window=3)
    night = diurnal_profile(6, peak_window=0)
    flat = TemporalProfile.flat(6, 0.8)
    tenants = []
    for i in range(24):
        profile = (day, night, flat)[i % 3]
        tenants.append(TemporalTag(web(1.0 + (i % 4) * 0.3), profile))
    return tenants


def _temporal_run(use_index):
    cluster = TemporalCluster(SPEC, windows=6, use_candidate_index=use_index)
    tenants = _temporal_tenants()
    outcomes = []
    live = []
    for i, tenant in enumerate(tenants):
        admission = cluster.admit(tenant)
        outcomes.append(admission is not None)
        if admission is not None:
            live.append(admission)
        # Interleave departures so the index sees release churn too.
        if i % 5 == 4 and live:
            cluster.depart(live.pop(0))
    state = (
        list(cluster.ledger._used_slots),
        list(cluster.ledger._free_subtree),
    )
    up, down = cluster.ledger.plane_matrices()
    return outcomes, state, up.tolist(), down.tolist()


def test_temporal_cluster_lockstep():
    baseline = _temporal_run(False)
    indexed = _temporal_run(True)
    assert baseline[0] == indexed[0], "admission outcomes diverged"
    assert baseline[1] == indexed[1], "slot state diverged"
    assert baseline[2] == indexed[2], "up-plane reservations diverged"
    assert baseline[3] == indexed[3], "down-plane reservations diverged"
    # Both admissions and rejections must have occurred.
    assert any(baseline[0]) and not all(baseline[0])
