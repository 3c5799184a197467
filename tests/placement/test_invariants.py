"""Cross-cutting placement invariants under random tenant churn.

These are the properties that make the simulator's numbers trustworthy:

* every accepted tenant's uplink reservations equal Eq. 1 of its final
  per-subtree VM counts, exactly;
* the ledger's per-link totals equal the sum over resident tenants;
* no link is ever left over capacity after an admission decision;
* after all tenants depart the datacenter is byte-identical to clean.
"""

from __future__ import annotations

import random

import pytest

from repro.core.tag import Tag
from repro.placement.base import Placement
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.placement.ha import HaPolicy
from repro.placement.oktopus import OktopusPlacer
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Ledger
from repro.workloads.patterns import mapreduce, star, three_tier

SPEC = DatacenterSpec(
    servers_per_rack=8,
    racks_per_pod=4,
    pods=2,
    slots_per_server=4,
    server_uplink=1000.0,
    tor_oversub=4.0,
    agg_oversub=2.0,
)


def random_tenant(rng: random.Random, index: int) -> Tag:
    kind = rng.random()
    scale = rng.uniform(0.5, 3.0)
    if kind < 0.4:
        sizes = (rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 6))
        return three_tier(f"t{index}", sizes, 40 * scale, 15 * scale, 5 * scale)
    if kind < 0.7:
        return mapreduce(
            f"t{index}",
            rng.randint(2, 10),
            rng.randint(1, 4),
            20 * scale,
            intra_bw=10 * scale,
        )
    leaves = rng.randint(1, 3)
    return star(
        f"t{index}",
        rng.randint(1, 4),
        [rng.randint(1, 4) for _ in range(leaves)],
        [rng.uniform(10, 60) for _ in range(leaves)],
    )


@pytest.mark.parametrize("placer_cls", [CloudMirrorPlacer, OktopusPlacer])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_churn_invariants(placer_cls, seed):
    rng = random.Random(seed)
    topology = three_level_tree(SPEC)
    ledger = Ledger(topology)
    placer = placer_cls(ledger)
    resident = []
    for index in range(60):
        tenant = random_tenant(rng, index)
        result = placer.place(tenant)
        assert not ledger.has_overcommit()
        if isinstance(result, Placement):
            resident.append(result.allocation)
        if resident and rng.random() < 0.4:
            departing = resident.pop(rng.randrange(len(resident)))
            departing.release()
            assert not ledger.has_overcommit()
    # Reservation exactness per tenant, per node (CM uses Eq. 1; Oktopus
    # the VOC requirement — checked through allocation.requirement).
    for allocation in resident:
        for node_id, counts in allocation.iter_node_counts():
            if node_id == allocation.ledger.flat.root_id:
                continue
            expected = allocation.requirement(allocation.tag, counts)
            reserved = allocation.reserved_on(node_id)
            assert reserved.out == pytest.approx(expected.out)
            assert reserved.into == pytest.approx(expected.into)
    # Ledger totals equal the per-tenant sums.
    for node in topology.nodes:
        if node.is_root:
            continue
        total_up = sum(a.reserved_on(node.node_id).out for a in resident)
        total_down = sum(a.reserved_on(node.node_id).into for a in resident)
        assert ledger.reserved_up(node) == pytest.approx(total_up)
        assert ledger.reserved_down(node) == pytest.approx(total_down)
    # Full teardown returns a pristine datacenter.
    for allocation in resident:
        allocation.release()
    assert ledger.free_slots(topology.root) == topology.total_slots
    for node in topology.nodes:
        if not node.is_root:
            assert ledger.reserved_up(node) == pytest.approx(0.0)
            assert ledger.reserved_down(node) == pytest.approx(0.0)


def test_churn_with_ha_guarantee():
    rng = random.Random(9)
    topology = three_level_tree(SPEC)
    ledger = Ledger(topology)
    placer = CloudMirrorPlacer(ledger, ha=HaPolicy(required_wcs=0.5))
    cap_checks = 0
    for index in range(40):
        tenant = random_tenant(rng, index)
        result = placer.place(tenant)
        if isinstance(result, Placement):
            for component in tenant.internal_components():
                cap = max(1, int(component.size * 0.5))
                for server_id, counts in result.allocation.iter_server_placements():
                    assert counts.get(component.name, 0) <= cap
                    cap_checks += 1
    assert cap_checks > 0
