"""The CloudMirror child search: one scan per ledger change, a pure probe,
a failed offer paid for once.

Unit tests of ``_walk`` / ``_scan`` (ranking order, class succession,
exclusion, an overcommitted ledger on entry, the obs counters), the
seeded probe == real-try property on both ledgers, and the failed-offer
memo: a hit == the real try it skips, equal state versions == equal
state, and the memo does not outlive its search.  The end-to-end
guarantee — decisions and layouts identical to the old rescan loop — is
``test_search_layouts.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.tag import Tag
from repro.obs import core as obs
from repro.placement import cloudmirror
from repro.placement.base import Placement, Rejection
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.placement.ha import HaPolicy
from repro.placement.state import _ZERO, Savepoint, TenantAllocation
from repro.temporal.admission import TemporalLedger
from repro.temporal.profile import TemporalProfile, diurnal_profile
from repro.topology.builder import single_rack, three_level_tree
from repro.topology.ledger import Journal, Ledger
from tests.placement.test_search_layouts import (
    SPEC,
    _classic,
    _layout,
    _temporal,
    small_bing_pool,
)


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
        hits = counters["cloudmirror.memo_hits"]
        scans = counters["cloudmirror.scans"]
    assert 0 < failed <= tries
    assert rejects > 0
    assert hits > 0
    # Far fewer scans than offers: the point of the ranking.
    assert scans < tries + rejects + hits


# ----------------------------------------------------------------------
# probe == real try
# ----------------------------------------------------------------------
def _profiles(rng):
    return [
        diurnal_profile(4, peak_window=rng.randrange(4), trough=rng.uniform(0.2, 1.0))
        for _ in range(5)
    ] + [TemporalProfile.flat(4)]


def _snapshot(ledger, allocation):
    """Copies of everything a try can write (the containers hold numbers
    and tuples, so one level deep is a deep copy)."""
    index = ledger.ensure_candidate_index()
    bandwidth = (
        (ledger._used_up, ledger._used_down)
        if isinstance(ledger, Ledger)
        else (ledger._up, ledger._down, ledger._max_up, ledger._max_down)
    )
    return (
        list(ledger._used_slots),
        list(ledger._free_subtree),
        [list(column) for column in bandwidth],
        set(ledger._over),
        [entries and list(entries) for entries in index._level_entries],
        index.pending_dirty(),
        list(allocation.journal.ops),
        list(allocation._state_ops),
        {node_id: dict(held) for node_id, held in allocation._counts.items()},
        dict(allocation._reserved),
        dict(allocation._remaining),
        allocation.placed_vms,
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


# ----------------------------------------------------------------------
# the failed-offer memo
# ----------------------------------------------------------------------
def _settled(snapshot):
    """What the search can read of a ``_snapshot``.

    A real try that rolls back differs from one never made in two ways no
    decision sees: the candidate index holds dirty entries (repaired on
    the next lookup), and the allocation keeps an empty count dict and a
    zero reservation for every node it touched.
    """
    *ledger, _entries, _dirty, journal, ops, counts, reserved, remaining, placed = (
        snapshot
    )
    return (
        ledger,
        journal,
        ops,
        {node_id: held for node_id, held in counts.items() if held},
        {node_id: pair for node_id, pair in reserved.items() if pair != _ZERO},
        remaining,
        placed,
    )


def _offer_key(allocation, request, child, ceiling):
    return (allocation.version, child.node_id, ceiling.node_id, *request.items())


def _intercept(monkeypatch, hook):
    """Call ``hook(real, key, placer, allocation, want, request, child,
    ceiling)`` ahead of every ``_try_child``, nested ones included."""
    real = CloudMirrorPlacer._try_child

    def try_child(placer, allocation, want, request, child, ceiling, probe):
        key = _offer_key(allocation, request, child, ceiling)
        hook(real, key, placer, allocation, want, request, child, ceiling)
        return real(placer, allocation, want, request, child, ceiling, probe)

    monkeypatch.setattr(CloudMirrorPlacer, "_try_child", try_child)


def _memo_churn(kind, ha):
    """The first half of the layout fixture's churn: ``small_bing_pool``
    at load 0.9, where most offers fail."""
    topology = three_level_tree(SPEC)
    if kind == "classic":
        decisions = _classic(topology, "cm", ha, arrivals=45)["decisions"]
    else:
        decisions = _temporal(topology, ha, arrivals=45)["decisions"]
    assert "0" in decisions and "1" in decisions


ARMS = pytest.mark.parametrize(
    "ha",
    [None, HaPolicy(required_wcs=0.5), HaPolicy(opportunistic=True)],
    ids=["plain", "wcs", "opportunistic"],
)
KINDS = pytest.mark.parametrize("kind", ["classic", "temporal"])


@KINDS
@ARMS
def test_memo_hit_is_the_real_try_it_skips(kind, ha, monkeypatch):
    hits = []

    def hook(real, key, placer, allocation, want, request, child, ceiling):
        memo = placer._failed
        if key not in memo:
            return
        # Would be answered from the memo: make the offer for real, nested
        # offers included, and see that nothing comes of it.
        hits.append(key)
        before = _settled(_snapshot(placer.ledger, allocation))
        wanted = dict(want)
        placer._failed = set()
        try:
            assert real(placer, allocation, want, request, child, ceiling, False) == 0
        finally:
            placer._failed = memo
        assert list(want.items()) == list(wanted.items())
        assert _settled(_snapshot(placer.ledger, allocation)) == before

    _intercept(monkeypatch, hook)
    with obs.enabled_scope() as counters:
        _memo_churn(kind, ha)
        # Every answer the placer took from its memo was checked here.
        assert counters["cloudmirror.memo_hits"] == len(hits) > 0


@KINDS
@ARMS
def test_equal_versions_are_equal_states(kind, ha, monkeypatch):
    recurrences = []

    class Versioned(TenantAllocation):
        """Logs the state under its version at every savepoint and after
        every rollback, and every version a mutation takes."""

        def __init__(self, *args):
            super().__init__(*args)
            self._states = {}
            self._taken = {0}

        def _observe(self):
            state = _settled(_snapshot(self.ledger, self))
            recurrences.append(self.version in self._states)
            assert self._states.setdefault(self.version, state) == state

        def savepoint(self):
            self._observe()
            return super().savepoint()

        def rollback(self, savepoint):
            super().rollback(savepoint)
            assert self.version == savepoint.version
            self._observe()

        def _bump_counts(self, *args):
            super()._bump_counts(*args)
            self._fresh()

        def _reserve(self, *args):
            ops = len(self._state_ops)
            super()._reserve(*args)
            if len(self._state_ops) != ops:
                self._fresh()

        def _fresh(self):
            assert self.version not in self._taken
            self._taken.add(self.version)

    monkeypatch.setattr(cloudmirror, "TenantAllocation", Versioned)
    _memo_churn(kind, ha)
    assert any(recurrences)


@pytest.mark.parametrize(
    "slots, cool, hot, grow",
    [
        # scale_up: the growth's first offer repeats, version for version,
        # one the hot tenant's rejection saw fail on the same server.
        (4, Tag.hose("cool", 6, 10.0), Tag.hose("hot", 6, 100.0), True),
        # place: every new allocation starts at version 0, like the last.
        (2, Tag.hose("cool", 3, 10.0), Tag.hose("hot", 4, 60.0), False),
    ],
    ids=["scale_up", "place"],
)
def test_memo_dies_with_its_search(slots, cool, hot, grow, monkeypatch):
    offers = []
    _intercept(monkeypatch, lambda real, key, *args: offers.append(key))
    layouts = []
    for fresh in (False, True):
        ledger = Ledger(single_rack(servers=4, slots_per_server=slots, nic_mbps=100.0))
        placer = CloudMirrorPlacer(ledger)
        allocation = placer.place(cool).allocation
        assert isinstance(placer.place(hot), Rejection)
        left_behind = set(placer._failed)
        if fresh:
            placer = CloudMirrorPlacer(ledger)
        del offers[:]
        if grow:
            assert placer.scale_up(allocation, "all", 3)
        else:
            allocation.release()  # what the rejected search saw is gone
            result = placer.place(hot)
            assert isinstance(result, Placement)
            allocation = result.allocation
        # Directed: the keys the rejection left would have answered.
        assert left_behind & set(offers)
        layouts.append(_layout(allocation))
    assert layouts[0] == layouts[1]
