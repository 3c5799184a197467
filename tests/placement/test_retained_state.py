"""A committed tenant keeps no undo log.

The undo log — the ledger journal plus a ``TenantAllocation``'s own
state ops — lasts one search, and a commit drops it.  For every placer
the repo ships: a placed tenant retains no undo record, a scale-up that
fails rolls back exactly and one that succeeds again retains nothing,
and ``release`` still returns the ledger to its pristine state.  A
``ServiceLoop`` churn never holds a live tenant that retains one.
"""

from __future__ import annotations

import pytest

from repro.placement.ha import HaPolicy
from repro.simulation.arrivals import poisson_arrivals
from repro.simulation.runner import make_placer
from repro.simulation.service import ServiceLoop
from repro.temporal.admission import TemporalCluster
from repro.temporal.profile import TemporalTag, diurnal_profile
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Ledger
from repro.workloads.patterns import three_tier
from tests.placement.undo_logs import committed_logs
from tests.topology.ledger_views import ledger_snapshot

SPEC = DatacenterSpec(
    servers_per_rack=4,
    racks_per_pod=2,
    pods=2,
    slots_per_server=4,
    server_uplink=1000.0,
    tor_oversub=2.0,
    agg_oversub=2.0,
)
WINDOWS = 24
KINDS = ["cm", "cm+ha", "ovoc", "secondnet", "temporal"]


def _tag():
    """Eight VMs over 4-slot servers: the tenant spans uplinks."""
    return three_tier("t", (3, 3, 2), b1=100.0, b2=50.0, b3=30.0)


def _world(kind):
    """``(ledger, placer, place)``: ``place()`` admits one tenant and
    returns its allocation (``None`` if rejected)."""
    if kind == "temporal":
        cluster = TemporalCluster(SPEC, windows=WINDOWS)
        tenant = TemporalTag(_tag(), diurnal_profile(WINDOWS))

        def admit():
            admission = cluster.admit(tenant)
            return None if admission is None else admission.allocation

        return cluster.ledger, cluster.placer, admit
    ledger = Ledger(three_level_tree(SPEC))
    if kind == "cm+ha":
        placer = make_placer("cm", ledger, HaPolicy(required_wcs=0.5))
    else:
        placer = make_placer(kind, ledger)
    return ledger, placer, lambda: placer.place(_tag()).allocation


def _books(allocation):
    """The allocation's own state; a zero reservation is no reservation."""
    return (
        {i: dict(c) for i, c in allocation._counts.items() if c},
        {i: r for i, r in allocation._reserved.items() if r != (0.0, 0.0)},
        dict(allocation._remaining),
        allocation.placed_vms,
        allocation.finalized,
        allocation.version,
        allocation.tag.tier_sizes(),
    )


def _retained(allocation):
    """The undo records a live allocation holds."""
    return [*allocation.journal.ops, *getattr(allocation, "_state_ops", ())]


@pytest.mark.parametrize("kind", KINDS)
def test_a_committed_tenant_retains_no_undo_log(kind):
    ledger, placer, place = _world(kind)
    pristine = ledger_snapshot(ledger)
    with committed_logs() as logs:
        allocation = place()
    assert allocation is not None and allocation.finalized
    assert allocation.journal.ops == []
    if kind != "secondnet":
        assert allocation._state_ops == []
        # The search did journal: the commit dropped a non-empty log.
        [(ops, state_ops)] = logs[allocation]
        assert ops and state_ops

    root_id = ledger.flat.root_id
    tier = allocation.tag.internal_components()[0].name
    if hasattr(placer, "scale_up"):
        # More VMs than the datacenter has free: the scale-up fails, and
        # its rollback lands exactly where the commit left off.
        before = (ledger_snapshot(ledger), _books(allocation))
        extra = ledger.free_slots_id(root_id) + 1
        assert not placer.scale_up(allocation, tier, extra)
        assert (ledger_snapshot(ledger), _books(allocation)) == before
        assert _retained(allocation) == []
        # A scale-up that fits commits, and drops its log again.
        with committed_logs() as logs:
            assert placer.scale_up(allocation, tier, 1)
        assert logs[allocation]
        assert _retained(allocation) == []
        assert allocation.placed_vms == _tag().size + 1
    elif kind == "ovoc":
        # Oktopus does not grow a tenant: an abandoned scale-up (every
        # reservation re-derived under the grown TAG) rolls back exactly.
        before = (ledger_snapshot(ledger), _books(allocation))
        savepoint = allocation.savepoint()
        allocation.begin_scale_up(tier, 2)
        allocation.rollback(savepoint)
        assert (ledger_snapshot(ledger), _books(allocation)) == before
        assert _retained(allocation) == []

    allocation.release()
    slots, free, bandwidth, over = ledger_snapshot(ledger)
    assert (slots, free, over) == (pristine[0], pristine[1], pristine[3])
    if kind == "temporal":
        # A W-plane release subtracts total x ratio from planes that
        # added delta x ratio step by step: equal up to float rounding.
        for column, clean in zip(bandwidth, pristine[2]):
            assert column == pytest.approx(clean, abs=1e-9)
    else:
        assert bandwidth == pristine[2]


def _pool():
    return [
        three_tier(f"svc-{i}", (2 + i % 3, 2, 1 + i % 2), b1=150.0, b2=60.0, b3=30.0)
        for i in range(8)
    ]


@pytest.mark.parametrize("kind", ["cm", "cm+ha", "ovoc", "secondnet"])
def test_no_live_tenant_of_a_churn_retains_an_undo_record(kind):
    ledger = Ledger(three_level_tree(SPEC))
    ha = HaPolicy(required_wcs=0.5) if kind == "cm+ha" else None
    placer = make_placer("cm" if kind == "cm+ha" else kind, ledger, ha)
    pool = _pool()
    events = poisson_arrivals(pool, 500, 0.9, three_level_tree(SPEC).total_slots, seed=3)
    admitted = []

    def on_decision(tag, allocation):
        if allocation is not None:
            admitted.append(allocation)
            assert not any(_retained(live) for live in loop.live())

    loop = ServiceLoop(ledger, placer, pool, on_decision=on_decision)
    report = loop.run(events)
    assert report["accepted"] == len(admitted) > 50
    assert loop.live() and not any(_retained(live) for live in loop.live())
