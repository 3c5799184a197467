"""The CloudMirror child search: one scan per ledger change, a pure probe.

Unit tests of ``_walk`` / ``_scan`` (ranking order, class succession,
exclusion, an overcommitted ledger on entry, the obs counters) and the
seeded probe == real-try property on both ledgers.  The end-to-end
guarantee — decisions and layouts identical to the old rescan loop — is
``test_search_layouts.py``.
"""

from __future__ import annotations

import random
from copy import deepcopy

import pytest

from repro.core.tag import Tag
from repro.obs import core as obs
from repro.placement.base import Rejection
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.placement.state import Savepoint, TenantAllocation
from repro.temporal.admission import TemporalLedger
from repro.temporal.profile import TemporalProfile, diurnal_profile
from repro.topology.builder import three_level_tree
from repro.topology.ledger import Journal, Ledger
from tests.placement.test_search_layouts import SPEC, small_bing_pool


# ----------------------------------------------------------------------
# the walk
# ----------------------------------------------------------------------
@pytest.fixture
def rack():
    """One rack whose servers have 4, 3, 4, 3, 2, 0, 0, 0 free slots."""
    topology = three_level_tree(SPEC)
    ledger = Ledger(topology)
    placer = CloudMirrorPlacer(ledger)
    tag = Tag("t")
    tag.add_component("a", 8)
    tag.add_self_loop("a", 10.0)
    allocation = TenantAllocation(tag, ledger)
    placer._candidate_plan(tag)
    tor = topology.level_nodes(1)[0]
    servers = list(tor.children)
    for server, taken in zip(servers, (0, 1, 0, 1, 2, 4, 4, 4)):
        if taken:
            ledger.reserve_slots(server, taken, Journal())
    return placer, allocation, tor, [server.node_id for server in servers]


def _values_by_free(values, evaluated):
    def option(allocation, want, child_id, free):
        evaluated.append(child_id)
        return values[free], {"a": 1}

    return option


def test_failed_tries_walk_down_one_ranking(rack, monkeypatch):
    placer, allocation, tor, ids = rack
    evaluated, tried = [], []

    def try_child(allocation, want, request, child, ceiling, probe=False):
        tried.append((child.node_id, probe))
        return 0

    monkeypatch.setattr(placer, "_try_child", try_child)
    want = {"a": 3}
    values = {4: 1.0, 3: 1.0, 2: 2.0}
    with obs.enabled_scope() as counters:
        placer._walk(allocation, want, tor, tor, _values_by_free(values, evaluated))
        assert counters["cloudmirror.scans"] == 1
    # Highest value first; equal values go to the earliest child, so the
    # two members of a class are *not* adjacent (0, 2 are one class,
    # 1, 3 another) — exactly what successive fresh scans would offer.
    assert [child_id for child_id, _ in tried] == [ids[4], ids[0], ids[1], ids[2], ids[3]]
    # One evaluation per equivalence class, first members in child order.
    assert evaluated == [ids[0], ids[1], ids[4]]
    # Probing starts after the first real failure.
    assert [probe for _, probe in tried] == [False, True, True, True, True]
    assert want == {"a": 3}


def test_exclusion_outlives_the_scan_that_caused_it(rack, monkeypatch):
    placer, allocation, tor, ids = rack
    ledger = placer.ledger
    evaluated, tried = [], []

    def try_child(allocation, want, request, child, ceiling, probe=False):
        tried.append(child.node_id)
        if child.node_id == ids[4]:
            return 0
        ledger.reserve_slots(child, 1, Journal())  # the ledger changes
        want["a"] -= 1
        if not want["a"]:
            del want["a"]
        return 1

    monkeypatch.setattr(placer, "_try_child", try_child)
    want = {"a": 2}
    values = {4: 1.0, 3: 1.0, 2: 2.0}
    with obs.enabled_scope() as counters:
        placer._walk(allocation, want, tor, tor, _values_by_free(values, evaluated))
        assert counters["cloudmirror.scans"] == 2
    # ids[4] is the best class in both scans but is offered only once.
    assert tried == [ids[4], ids[0], ids[0]]
    # The second scan re-evaluates (the ledger changed) without ids[4].
    assert evaluated == [ids[0], ids[1], ids[4], ids[0], ids[2]]
    assert not want


def test_overcommitted_ledger_on_entry_is_never_probed(rack):
    placer, allocation, tor, ids = rack
    ledger = placer.ledger
    far = ledger.topology.level_nodes(1)[-1]
    ledger.adjust_uplink_id(far.node_id, 1e9, 0.0, Journal(), enforce=False)
    assert ledger.has_overcommit()
    before = (list(ledger._used_slots), list(ledger._used_up), list(ledger._used_down))
    want = {"a": 3}
    with obs.enabled_scope() as counters:
        placer._walk(allocation, want, tor, tor, placer._greedy_fill, True)
        # Placing may lower a reservation and clear the over-set, so the
        # probe abstains and all five open servers are really tried.
        assert "cloudmirror.probe_rejects" not in counters
        assert counters["cloudmirror.tries"] == 5
        assert counters["cloudmirror.tries_failed"] == 5
    assert allocation.probe(ids[0], [("a", 1)]) is None
    assert want == {"a": 3}
    assert before == (
        list(ledger._used_slots),
        list(ledger._used_up),
        list(ledger._used_down),
    )


def test_counters_account_for_a_rejection():
    topology = three_level_tree(SPEC)
    ledger = Ledger(topology)
    placer = CloudMirrorPlacer(ledger)
    tag = Tag("too-hot")
    tag.add_component("a", 40)
    tag.add_component("b", 40)
    tag.add_edge("a", "b", 900.0, 900.0)
    with obs.enabled_scope() as counters:
        assert isinstance(placer.place(tag), Rejection)
        tries = counters["cloudmirror.tries"]
        failed = counters["cloudmirror.tries_failed"]
        rejects = counters["cloudmirror.probe_rejects"]
        scans = counters["cloudmirror.scans"]
    assert 0 < failed <= tries
    assert rejects > 0
    # Far fewer scans than offers: the point of the ranking.
    assert scans < tries + rejects


# ----------------------------------------------------------------------
# probe == real try
# ----------------------------------------------------------------------
def _profiles(rng):
    return [
        diurnal_profile(4, peak_window=rng.randrange(4), trough=rng.uniform(0.2, 1.0))
        for _ in range(5)
    ] + [TemporalProfile.flat(4)]


def _snapshot(ledger, allocation):
    index = ledger.ensure_candidate_index()
    bandwidth = (
        (ledger._used_up, ledger._used_down)
        if isinstance(ledger, Ledger)
        else (ledger._up, ledger._down, ledger._max_up, ledger._max_down)
    )
    return deepcopy(
        (
            ledger._used_slots,
            ledger._free_subtree,
            bandwidth,
            ledger._over,
            index._level_entries,
            index.pending_dirty(),
            allocation.journal.ops,
            allocation._state_ops,
            allocation._counts,
            allocation._reserved,
            allocation._remaining,
            allocation.placed_vms,
        )
    )


@pytest.mark.parametrize("kind", ["classic", "temporal"])
@pytest.mark.parametrize("seed", range(6))
def test_probe_agrees_with_the_real_try_and_touches_nothing(kind, seed):
    rng = random.Random(seed)
    topology = three_level_tree(SPEC)
    pool = small_bing_pool()
    if kind == "classic":
        ledger = Ledger(topology)
        activate = lambda: None  # noqa: E731
    else:
        ledger = TemporalLedger(topology, 4)
        profiles = _profiles(rng)
        activate = lambda: ledger.set_ratios(rng.choice(profiles))  # noqa: E731
    placer = CloudMirrorPlacer(ledger)
    # A random admitted background: reservations on every level.
    for _ in range(30):
        activate()
        placer.place(rng.choice(pool))
    servers = topology.servers
    root = topology.root
    verdicts = {True: 0, False: 0}
    for _ in range(12):
        activate()  # the tenant under test keeps these ratios throughout
        tag = rng.choice(pool)
        allocation = TenantAllocation(tag, ledger)
        placer._candidate_plan(tag)
        for _ in range(25):
            remaining = allocation.remaining_tiers()
            open_servers = [s for s in servers if ledger.free_slots(s) > 0]
            if not remaining or not open_servers:
                break
            server = rng.choice(open_servers)
            request = {
                tier: rng.randint(1, min(left, 4))
                for tier, left in remaining.items()
                if rng.random() < 0.7
            }
            fill = placer._server_fill(allocation, request, server)
            before = _snapshot(ledger, allocation)
            with obs.enabled_scope() as counters:
                verdict = allocation.probe(server.node_id, fill)
                assert not counters
            assert _snapshot(ledger, allocation) == before
            savepoint = allocation.savepoint()
            for tier, count in fill:
                assert allocation.place(server, tier, count, root)
            real = server.node_id in ledger.overcommitted_nodes()
            assert verdict is real
            verdicts[real] += 1
            # Keep some placements so later probes see this tenant's own
            # counts and reservations on the server and its ancestors.
            if ledger.has_overcommit() or rng.random() < 0.5:
                allocation.rollback(savepoint)
        allocation.rollback(Savepoint(0, 0))  # the test tenant leaves
    assert verdicts[True] > 10 and verdicts[False] > 10
