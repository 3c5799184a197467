"""An uplink whose requirement is unchanged is not touched — and nothing else moves.

``TenantAllocation`` skips the ledger write, the journal record and the
state op when a re-evaluated requirement equals what it already holds,
and ``finalize`` evaluates once for the whole root path.  Two suites:

* **the write-always oracle** — a test-side subclass that restores the
  unconditional write and the per-hop evaluation, driven in lockstep
  with the shipped class by one Hypothesis op sequence over both
  ledgers, three placers and tags with and without an external
  component.  After every step: identical decisions and layouts,
  ``ledger_fingerprint``, over-set, per-node ``reserved_on``, plane
  matrices and worst-case availability; and every rollback either world
  performs (the placers' own failed tries included) must land on exactly
  the state its savepoint saw, the same state in both worlds.
* **what the journals hold** — the structural pins: a tenant that needs
  no bandwidth journals only slots, a split tenant journals only the
  hops that carry traffic, ``release`` drains to pristine, and a probe
  whose deltas are all zero never reaches the adjust kernel.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _kernels
from repro.core.tag import Tag
from repro.errors import ReproError
from repro.placement import cloudmirror, oktopus
from repro.placement.base import Placement
from repro.models.voc import voc_uplink_requirement
from repro.placement.ha import HaPolicy
from repro.placement.state import _OP_RESERVED, _ZERO, Savepoint, TenantAllocation
from repro.simulation.service import ledger_fingerprint
from repro.temporal.admission import TemporalLedger
from repro.temporal.profile import diurnal_profile
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import OP_SLOTS, Journal, Ledger

SPEC = DatacenterSpec(
    servers_per_rack=3,
    racks_per_pod=2,
    pods=2,
    slots_per_server=4,
    server_uplink=250.0,
    tor_oversub=2.0,
    agg_oversub=2.0,
)
TOPOLOGY = three_level_tree(SPEC)
SERVERS = TOPOLOGY.servers
WINDOWS = 6
PROFILES = tuple(
    diurnal_profile(WINDOWS, peak_window=peak, trough=trough)
    for peak, trough in ((0, 0.25), (2, 0.5), (4, 0.8))
)


# ----------------------------------------------------------------------
# the oracle: today's class with the pre-rule write path restored
# ----------------------------------------------------------------------
class WriteAlways(TenantAllocation):
    """Every evaluation is written and journalled; every hop is evaluated."""

    def _reserve(self, node_id, required):
        prev_out, prev_into = self._reserved.get(node_id, _ZERO)
        self.ledger.adjust_uplink_id(
            node_id,
            required[0] - prev_out,
            required[1] - prev_into,
            self.journal,
            enforce=False,
        )
        self._state_ops.append((_OP_RESERVED, node_id, prev_out, prev_into))
        self._reserved[node_id] = required

    def finalize(self, allocation_root):
        if not self.is_complete:
            raise ReproError("finalize() requires a complete placement")
        savepoint = self.savepoint()
        for node_id in self._flat.path_up[allocation_root.node_id]:
            self._update_reservation(node_id)
        if self.ledger.has_overcommit():
            self.rollback(savepoint)
            return False
        self.finalized = True
        return True

    def probe(self, server_id, fill):
        ledger = self.ledger
        if ledger.has_overcommit():
            return None
        inside = dict(self._counts.get(server_id, ()))
        prev_out, prev_into = self._reserved.get(server_id, _ZERO)
        deltas = []
        for tier, count in fill:
            inside[tier] = inside.get(tier, 0) + count
            out, into = self._require(inside)
            deltas.append((out - prev_out, into - prev_into))
            prev_out, prev_into = out, into
        return ledger.would_overcommit(server_id, deltas)

    def _refresh_all_reservations(self, journalled=True):
        if journalled:
            return super()._refresh_all_reservations()
        for node_id, counts in list(self._counts.items()):
            if node_id == self._flat.root_id:
                continue
            out, into = self._require(counts)
            prev_out, prev_into = self._reserved.get(node_id, _ZERO)
            self.ledger.release_uplink_id(node_id, prev_out - out, prev_into - into)
            self._reserved[node_id] = (out, into)


def _audited(base, log):
    """``base`` logging the state at every savepoint and after every rollback,
    and checking that a rollback lands on the state its savepoint saw."""

    class Audited(base):
        def __init__(self, *args):
            super().__init__(*args)
            self._seen = {}

        def savepoint(self):
            savepoint = super().savepoint()
            state = self._seen[savepoint] = _raw_state(self)
            log.append(("savepoint", state))
            return savepoint

        def rollback(self, savepoint):
            super().rollback(savepoint)
            state = _raw_state(self)
            assert self._seen.get(savepoint, state) == state, "rollback missed its savepoint"
            log.append(("rollback", state))

    return Audited


@contextmanager
def _allocating(cls):
    """The placers build their allocations from ``cls`` while this is open."""
    modules = (cloudmirror, oktopus)
    saved = [module.TenantAllocation for module in modules]
    for module in modules:
        module.TenantAllocation = cls
    try:
        yield
    finally:
        for module, original in zip(modules, saved):
            module.TenantAllocation = original


def _bandwidth(ledger):
    if isinstance(ledger, TemporalLedger):
        return (ledger._up, ledger._down, ledger._max_up, ledger._max_down)
    return (ledger._used_up, ledger._used_down)


def _snapshot(ledger):
    return (
        list(ledger._used_slots),
        list(ledger._free_subtree),
        [list(column) for column in _bandwidth(ledger)],
        set(ledger._over),
    )


def _raw_state(allocation):
    """Copies of the ledger's arrays and the allocation's books (the audit
    runs at every savepoint and rollback, so no hashing and no numpy);
    a reservation of zero and no reservation are the same thing."""
    return (
        *_snapshot(allocation.ledger),
        {i: dict(c) for i, c in allocation._counts.items() if c},
        {i: r for i, r in allocation._reserved.items() if r != _ZERO},
        dict(allocation._remaining),
        allocation.placed_vms,
        allocation.finalized,
        allocation.tag.tier_sizes(),
    )


def _state(ledger, allocations):
    """Everything a skipped write could have changed, through the public
    queries, journals excepted."""
    non_root = [n for n in TOPOLOGY.nodes if not n.is_root]
    planes = ()
    if isinstance(ledger, TemporalLedger):
        planes = tuple(matrix.tobytes() for matrix in ledger.plane_matrices())
    return (
        ledger_fingerprint(ledger),
        ledger.overcommitted_nodes(),
        planes,
        tuple(
            (ledger.available_up_id(n.node_id), ledger.available_down_id(n.node_id))
            for n in non_root
        ),
        tuple(ledger.free_slots(n) for n in TOPOLOGY.nodes),
        tuple(
            (
                a.tag.tier_sizes(),
                a.finalized,
                a.placed_vms,
                a.remaining_tiers(),
                {i: c for i, c in a.iter_node_counts_id()},
                tuple(a.reserved_on(n) for n in non_root),
            )
            for a in allocations
        ),
    )


# ----------------------------------------------------------------------
# one world: a ledger, a placer, the live tenants
# ----------------------------------------------------------------------
def _pool(external: bool) -> list[Tag]:
    hose = Tag.hose("hose", 5, 60.0)
    pair = Tag("pair")
    pair.add_component("a", 3)
    pair.add_component("b", 4)
    pair.add_edge("a", "b", 90.0, 35.0)  # out and into move independently
    tiers = Tag("tiers")
    tiers.add_component("web", 4)
    tiers.add_component("logic", 3)
    tiers.add_component("db", 2)
    tiers.add_undirected_edge("web", "logic", 50.0, 50.0)
    tiers.add_edge("logic", "db", 20.0, 70.0)
    tiers.add_self_loop("db", 25.0)
    big = Tag("big")
    big.add_component("x", 9)
    big.add_component("y", 7)
    big.add_edge("x", "y", 60.0, 90.0)
    big.add_self_loop("y", 40.0)
    loops = Tag("loops")  # whole tiers per server: every delta is zero
    loops.add_component("a", 2)
    loops.add_component("b", 2)
    loops.add_self_loop("a", 30.0)
    loops.add_self_loop("b", 45.0)
    tiny = Tag.hose("tiny", 2, 120.0)
    if external:
        for tag, tier, send, recv in (
            (pair, "b", 15.0, 40.0),
            (tiers, "web", 30.0, 10.0),
            (tiny, "all", 5.0, 5.0),
        ):
            tag.add_component("internet", external=True)
            tag.add_edge(tier, "internet", send, 1e9)
            tag.add_edge("internet", tier, 1e9, recv)
    return [hose, pair, tiers, big, loops, tiny]


class World:
    def __init__(self, base, placer_kind, ledger_kind, external):
        self.log: list = []
        self.cls = _audited(base, self.log)
        self.temporal = ledger_kind == "temporal"
        self.ledger = (
            TemporalLedger(TOPOLOGY, WINDOWS) if self.temporal else Ledger(TOPOLOGY)
        )
        if placer_kind == "ovoc":
            self.placer = oktopus.OktopusPlacer(self.ledger)
        else:
            ha = HaPolicy(required_wcs=0.5) if placer_kind == "cm+ha" else None
            self.placer = cloudmirror.CloudMirrorPlacer(self.ledger, ha=ha)
        self.pool = _pool(external)
        self.live: list[tuple[TenantAllocation, int]] = []

    def _activate(self, profile):
        if self.temporal:
            self.ledger.set_ratios(PROFILES[profile])

    def _tenant(self, which):
        return self.live[which % len(self.live)] if self.live else None

    def step(self, op):
        """Apply one op; returns what the op decided (compared across worlds)."""
        with _allocating(self.cls):
            return getattr(self, "_" + op[0])(*op[1:])

    def _admit(self, tag, profile):
        self._activate(profile)
        result = self.placer.place(self.pool[tag])
        if not isinstance(result, Placement):
            return None
        self.live.append((result.allocation, profile))
        return sorted(
            (server.name, sorted(counts.items()))
            for server, counts in result.allocation.iter_server_placements()
        )

    def _depart(self, which):
        if not self.live:
            return None
        allocation, profile = self.live.pop(which % len(self.live))
        self._activate(profile)
        allocation.release()
        return True

    def _scale_up(self, which, tier, extra):
        tenant = self._tenant(which)
        if tenant is None:
            return None
        allocation, profile = tenant
        self._activate(profile)
        tiers = allocation.internal_tiers
        tier = tiers[tier % len(tiers)]
        if hasattr(self.placer, "scale_up"):
            return self.placer.scale_up(allocation, tier, extra)
        # Oktopus cannot grow a tenant: re-derive every reservation under
        # the grown TAG (the journalled refresh arm), then give up.
        savepoint = allocation.savepoint()
        allocation.begin_scale_up(tier, extra)
        allocation.rollback(savepoint)
        return False

    def _scale_down(self, which, tier, remove):
        tenant = self._tenant(which)
        if tenant is None:
            return None
        allocation, profile = tenant
        self._activate(profile)
        tiers = allocation.internal_tiers
        tier = tiers[tier % len(tiers)]
        size = allocation.tag.component(tier).size
        if size < 2:
            return None
        allocation.scale_down(tier, min(remove, size - 1))
        return True

    def _failed_try(self, tag, profile, fills):
        """Place by hand with a savepoint per fill, then unwind them all."""
        self._activate(profile)
        tag = self.pool[tag]
        if isinstance(self.placer, oktopus.OktopusPlacer):
            allocation = self.cls(tag, self.ledger, voc_uplink_requirement)
        else:
            allocation = self.cls(tag, self.ledger)
        tiers = allocation.internal_tiers
        savepoints, placed = [], []
        for server, tier, count in fills:
            tier = tiers[tier % len(tiers)]
            count = min(count, allocation.remaining(tier))
            if count == 0:
                continue
            server = SERVERS[server]
            verdict = allocation.probe(server.node_id, [(tier, count)])
            savepoints.append(allocation.savepoint())
            if allocation.place(server, tier, count, TOPOLOGY.root):
                over = server.node_id in self.ledger.overcommitted_nodes()
                assert verdict is None or verdict is over, "probe != real try"
            placed.append((verdict, allocation.placed_vms))
        for savepoint in reversed(savepoints):
            allocation.rollback(savepoint)
        return placed


WORLDS = [
    pytest.param(placer, ledger, external, id=f"{placer}-{ledger}-{tags}")
    for placer in ("cm", "ovoc", "cm+ha")
    for ledger in ("classic", "temporal")
    for external, tags in ((False, "internal"), (True, "external"))
]

_tenant = st.integers(0, 7)
_tier = st.integers(0, 2)
_tag = st.integers(0, 5)
_profile = st.integers(0, len(PROFILES) - 1)
_admit = st.tuples(st.just("admit"), _tag, _profile)
OPS = st.lists(
    st.one_of(
        _admit,
        _admit,
        _admit,
        st.tuples(st.just("depart"), _tenant),
        st.tuples(st.just("scale_up"), _tenant, _tier, st.integers(1, 4)),
        st.tuples(st.just("scale_down"), _tenant, _tier, st.integers(1, 3)),
        st.tuples(
            st.just("failed_try"),
            _tag,
            _profile,
            st.lists(
                st.tuples(st.integers(0, len(SERVERS) - 1), _tier, st.integers(1, 4)),
                min_size=1,
                max_size=6,
            ),
        ),
    ),
    min_size=20,
    max_size=50,
)


@pytest.mark.parametrize("placer, ledger, external", WORLDS)
@given(ops=OPS)
@settings(max_examples=10, deadline=None, derandomize=True)
def test_skipping_unchanged_writes_changes_nothing_else(placer, ledger, external, ops):
    real = World(TenantAllocation, placer, ledger, external)
    oracle = World(WriteAlways, placer, ledger, external)
    for op in ops:
        assert real.step(op) == oracle.step(op), op
        # Every savepoint taken and every rollback made inside the step,
        # the placers' own included, saw the same state in both worlds.
        assert real.log == oracle.log, op
        real.log.clear(), oracle.log.clear()
        assert _state(real.ledger, [a for a, _ in real.live]) == _state(
            oracle.ledger, [a for a, _ in oracle.live]
        ), op
    # The rule only ever shortens a journal.
    for (mine, _), (theirs, _) in zip(real.live, oracle.live):
        assert len(mine.journal.ops) <= len(theirs.journal.ops)
        assert len(mine._state_ops) <= len(theirs._state_ops)


# ----------------------------------------------------------------------
# what the journals hold
# ----------------------------------------------------------------------
DAY = 24


def _ledger(kind):
    if kind == "classic":
        return Ledger(TOPOLOGY)
    ledger = TemporalLedger(TOPOLOGY, DAY)
    ledger.set_ratios(diurnal_profile(DAY))
    return ledger


def _sequences(record):
    """Every list or tuple nested anywhere inside a journal record."""
    for item in record:
        if isinstance(item, (list, tuple)):
            yield item
            yield from _sequences(item)


@pytest.mark.parametrize("kind", ["classic", "temporal"])
def test_a_single_server_tenant_journals_only_its_slots(kind):
    ledger = _ledger(kind)
    pristine = _snapshot(ledger)
    placer = cloudmirror.CloudMirrorPlacer(ledger)
    result = placer.place(Tag.hose("fits", 4, 80.0))
    assert isinstance(result, Placement)
    allocation = result.allocation
    assert len(list(allocation.iter_server_placements())) == 1
    ops = allocation.journal.ops
    assert ops and all(op[0] == OP_SLOTS for op in ops)
    assert allocation._reserved == {}
    assert not any(op[0] == _OP_RESERVED for op in allocation._state_ops)
    # A live admission keeps no per-window column alive: nothing it
    # retains, at any depth, is a W-length sequence.
    for record in [*ops, *allocation._state_ops]:
        assert all(len(seq) != DAY for seq in _sequences(record))
    assert _snapshot(ledger)[2] == pristine[2]
    allocation.release()
    assert _snapshot(ledger) == pristine


@pytest.mark.parametrize("kind", ["classic", "temporal"])
def test_a_split_tenant_journals_only_the_hops_that_carry_traffic(kind):
    ledger = _ledger(kind)
    pristine = _snapshot(ledger)
    placer = cloudmirror.CloudMirrorPlacer(ledger)
    result = placer.place(Tag.hose("split", 8, 20.0))
    assert isinstance(result, Placement)
    allocation = result.allocation
    used = [server for server, _ in allocation.iter_server_placements()]
    assert len(used) == 2 and used[0].parent is used[1].parent
    server_ids = sorted(server.node_id for server in used)
    written = [op[1] for op in allocation.journal.ops if op[0] != OP_SLOTS]
    assert sorted(written) == server_ids  # one record each, none for rack or pod
    assert sorted(allocation._reserved) == server_ids
    assert sorted(
        op[1] for op in allocation._state_ops if op[0] == _OP_RESERVED
    ) == server_ids
    rack = used[0].parent
    for node in (rack, rack.parent):
        assert ledger.reserved_up(node) == ledger.reserved_down(node) == 0.0
    allocation.release()
    assert _snapshot(ledger) == pristine


@pytest.mark.parametrize("kind", ["classic", "temporal"])
def test_a_probe_with_nothing_to_write_never_reaches_the_kernel(kind, monkeypatch):
    ledger = _ledger(kind)
    calls = []
    for name in ("ledger_adjust", "temporal_adjust"):
        kernel = getattr(_kernels, name)

        def counted(*args, _kernel=kernel, _name=name):
            calls.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(_kernels, name, counted)
    loops = _pool(external=False)[4]
    server = SERVERS[0]
    fill = [("a", 2), ("b", 2)]
    allocation = TenantAllocation(loops, ledger)
    assert allocation.probe(server.node_id, fill) is False
    assert calls == []
    # ... and the real try concludes the same, also without a write.
    for tier, count in fill:
        assert allocation.place(server, tier, count, TOPOLOGY.root)
    assert server.node_id not in ledger.overcommitted_nodes()
    assert calls == []
    allocation.rollback(Savepoint(0, 0))
    # A fill that does change the requirement still replays the kernel.
    assert allocation.probe(server.node_id, [("a", 1)]) is False
    assert len(calls) == 1
    ledger.adjust_uplink_id(server.node_id, 240.0, 0.0, Journal(), enforce=False)
    assert allocation.probe(server.node_id, [("a", 1)]) is True
