"""The CloudMirror child search: one scan per ledger change, a pure probe,
a failed offer paid for once.

Unit tests of ``_walk`` / ``_scan`` (ranking order, class succession,
exclusion, an overcommitted ledger on entry, which passes probe their
first offer, the obs counters), the seeded probe == real-try property on
both ledgers, the failed-offer memo (a hit == the real try it skips,
equal state versions == equal state, the memo does not outlive its
search) and the allocation's Eq. 1 memo (a hit == a fresh evaluation,
engaged only by a failed offer, gone from every placed tenant and after
a rolled-back resize).  The end-to-end guarantee — decisions and
layouts identical to the old rescan loop — is ``test_search_layouts.py``.
"""

from __future__ import annotations

import random

import pytest

from repro import _kernels
from repro.core.bandwidth import uplink_requirement
from repro.core.tag import Tag
from repro.obs import core as obs
from repro.placement import cloudmirror
from repro.placement.base import Placement, Rejection
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.placement.ha import HaPolicy
from repro.placement.state import (
    _ZERO,
    Savepoint,
    TenantAllocation,
    _compile_uplink_requirement,
)
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
    def option(allocation, want, child_id, free, counts, up, down):
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
        placer._walk(allocation, want, tor, tor, placer._greedy_fill, probe_first=True)
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


def test_only_the_relaxed_pass_probes_its_first_offer(monkeypatch):
    """Balance's relaxed pass gets only what the bandwidth-aware pass left,
    which mostly does not fit, so its first offer is probed; Colocate and
    the bandwidth-aware pass make their first offer for real."""
    walks = []  # the active walks, innermost last: [pass, first offer pending]
    firsts: dict[str, set[bool]] = {}
    real_walk = CloudMirrorPlacer._walk
    real_try = CloudMirrorPlacer._try_child

    def walk(placer, allocation, want, subtree, ceiling, option, *args, **kwargs):
        name = option.__name__
        if name == "_greedy_fill":
            name = "bandwidth" if kwargs.get("bandwidth") else "relaxed"
        walks.append([name, True])
        try:
            return real_walk(
                placer, allocation, want, subtree, ceiling, option, *args, **kwargs
            )
        finally:
            walks.pop()

    def try_child(placer, allocation, want, request, child, ceiling, probe):
        frame = walks[-1]
        if frame[1]:
            frame[1] = False
            firsts.setdefault(frame[0], set()).add(probe)
        return real_try(placer, allocation, want, request, child, ceiling, probe)

    monkeypatch.setattr(CloudMirrorPlacer, "_walk", walk)
    monkeypatch.setattr(CloudMirrorPlacer, "_try_child", try_child)
    _memo_churn("classic", None)
    assert firsts == {
        "_coloc_option": {False},
        "bandwidth": {False},
        "relaxed": {True},
    }


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
    for attempt in range(12):
        activate()  # the tenant under test keeps these ratios throughout
        tag = rng.choice(pool)
        allocation = TenantAllocation(tag, ledger)
        if attempt % 2:
            allocation.memoize()  # probe and place share the Eq. 1 memo
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


# ----------------------------------------------------------------------
# the Eq. 1 memo
# ----------------------------------------------------------------------
def _random_tag(rng):
    """Tiers with and without self-loops, external components, and edges
    with unequal send and recv rates in either direction."""
    tag = Tag("random")
    tiers = [f"t{i}" for i in range(rng.randint(1, 4))]
    for tier in tiers:
        tag.add_component(tier, rng.randint(1, 9))
        if rng.random() < 0.6:
            tag.add_self_loop(tier, rng.choice((0.0, rng.uniform(1.0, 300.0))))
    outside = [f"x{i}" for i in range(rng.randint(0, 2))]
    for name in outside:
        tag.add_component(name, external=True)
    names = tiers + outside
    for _ in range(rng.randint(0, 6)):
        src, dst = rng.choice(names), rng.choice(names)
        if src == dst or (src, dst) in tag.edges or {src, dst} <= set(outside):
            continue
        tag.add_edge(src, dst, rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0))
    return tag


def _hex(pair):
    return tuple(value.hex() for value in pair)


@pytest.mark.parametrize("seed", range(4))
def test_eq1_memo_hit_is_a_fresh_evaluation(seed, monkeypatch):
    rng = random.Random(seed)
    ledger = Ledger(three_level_tree(SPEC))
    kernel = _kernels.eq1_requirement
    evaluated = []

    def eq1_requirement(edges, inside):
        evaluated.append(frozenset(inside.items()))
        return kernel(edges, inside)

    for _ in range(30):
        tag = _random_tag(rng)
        vectors = [
            {
                tier: rng.randint(1, size)
                for tier, size in tag.tier_sizes().items()
                if rng.random() < 0.7
            }
            for _ in range(8)
        ]
        fresh = _compile_uplink_requirement(tag)
        expected = []
        for counts in vectors:
            reference = uplink_requirement(tag, counts)
            assert _hex(fresh(counts)) == _hex((reference.out, reference.into))
            expected.append(_hex(fresh(counts)))
        allocation = TenantAllocation(tag, ledger)
        allocation.memoize()
        monkeypatch.setattr(_kernels, "eq1_requirement", eq1_requirement)
        # Each vector twice, every time in a fresh insertion order.
        for counts, want in zip(vectors * 2, expected * 2):
            items = list(counts.items())
            rng.shuffle(items)
            assert _hex(allocation._evaluate(dict(items))) == want
        monkeypatch.setattr(_kernels, "eq1_requirement", kernel)
        # One kernel evaluation per distinct count vector.
        distinct = {frozenset(counts.items()) for counts in vectors}
        assert sorted(evaluated, key=sorted) == sorted(distinct, key=sorted)
        del evaluated[:]


@KINDS
@ARMS
def test_eq1_memo_starts_at_the_first_failed_offer(kind, ha, monkeypatch):
    offers = {True: 0, False: 0}

    def hook(real, key, placer, allocation, want, request, child, ceiling):
        engaged = allocation._memo is not None
        # Until this search has a failed offer no count vector is keyed.
        assert engaged == bool(placer._failed)
        offers[engaged] += 1

    _intercept(monkeypatch, hook)
    _memo_churn(kind, ha)
    assert offers[True] and offers[False]


@KINDS
def test_no_placed_tenant_keeps_an_eq1_memo(kind, monkeypatch):
    made = []

    class Recorded(TenantAllocation):
        def __init__(self, *args):
            super().__init__(*args)
            self.engaged = False
            made.append(self)

        def memoize(self):
            super().memoize()
            self.engaged = True

    monkeypatch.setattr(cloudmirror, "TenantAllocation", Recorded)
    _memo_churn(kind, None)
    placed = [allocation for allocation in made if allocation.finalized]
    assert any(allocation.engaged for allocation in placed)
    assert all(allocation._memo is None for allocation in placed)


def test_rolled_back_resize_evaluates_under_the_restored_tag(monkeypatch):
    ledger = Ledger(single_rack(servers=4, slots_per_server=4, nic_mbps=100.0))
    placer = CloudMirrorPlacer(ledger)
    allocation = placer.place(Tag.hose("warm", 6, 30.0)).allocation
    restored = allocation.tag
    memos = []
    real = TenantAllocation.memoize

    def memoize(self):
        real(self)
        memos.append(self._memo)

    monkeypatch.setattr(TenantAllocation, "memoize", memoize)
    # Ten VMs put four on some server: min(4, 10 - 4) x 30 > 100 Mbps.
    assert not placer.scale_up(allocation, "all", 4)
    assert allocation.tag is restored
    assert allocation._memo is None
    grown = {key for memo in memos for key in memo}
    assert grown  # the failed growth keyed count vectors under 10 VMs
    fresh = _compile_uplink_requirement(restored)
    assert allocation.is_complete
    allocation.memoize()  # the next search's memo
    for key in grown:
        counts = dict(key)
        assert _hex(allocation._evaluate(counts)) == _hex(fresh(counts))
