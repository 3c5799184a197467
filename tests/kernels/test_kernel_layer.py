"""The contracts of the placement hot loops, on the methods that run them.

Each loop lives in the module that owns its state:

* the reservation adjust — ``adjust_uplink_id`` and its read-only twin
  ``would_overcommit`` — once per storage, on :class:`Ledger` and on the
  W-plane :class:`TemporalLedger`;
* the SecondNet path walk and pipe expansion on
  :mod:`repro.placement.secondnet`;
* the compiled Eq. 1 / VOC requirement closures of
  :mod:`repro.placement.state`.

The cases pin the conventions nothing else states: the overcommit set
both ways, an invalid adjust writing nothing, the path walk's
order, the pipe expansion's order, ``inf * 0 == 0``; and two properties
that keep twins in agreement — ``would_overcommit`` against the real
adjust on both storages, the compiled VOC closure against
:func:`repro.models.voc.voc_uplink_requirement`.  Last, each loop's
home is pinned by the loop's old kernel name, and a counting wrapper
installed there is reached by the placer that consumes it.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _kernels
from repro.core.tag import Tag
from repro.errors import LedgerError
from repro.models.voc import voc_uplink_requirement
from repro.placement import secondnet, state
from repro.placement.base import Placement
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.placement.oktopus import OktopusPlacer
from repro.placement.secondnet import SecondNetPlacer, _pipe_plan
from repro.placement.state import _compile_uplink_requirement, _compile_voc_requirement
from repro.temporal.admission import TemporalLedger
from repro.temporal.profile import diurnal_profile
from repro.topology.builder import (
    DatacenterSpec,
    heterogeneous_from_spec,
    three_level_tree,
)
from repro.topology.ledger import Journal, Ledger
from tests.fabrics import fat_tree, level_nodes
from tests.placement.test_search_walk import _random_tag
from tests.topology.ledger_views import overcommitted_nodes

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
WINDOWS = 6
SERVER = TOPOLOGY.servers[0].node_id
RACK = level_nodes(TOPOLOGY, 1)[0].node_id
STORAGES = ["classic", "temporal"]


def _ledger(storage: str, ratios: bool = False):
    """A fresh ledger; the temporal one under unit ratios unless asked."""
    if storage == "classic":
        return Ledger(TOPOLOGY)
    ledger = TemporalLedger(TOPOLOGY, WINDOWS)
    if ratios:
        ledger.set_ratios(diurnal_profile(WINDOWS))
    return ledger


def _state(ledger) -> tuple:
    """Every value an adjust may write, as reprs (bit-exact)."""
    return (
        repr(ledger._max_up),
        repr(ledger._max_down),
        repr(getattr(ledger, "_up", None)),
        repr(getattr(ledger, "_down", None)),
        sorted(ledger._over),
    )


# ----------------------------------------------------------------------
# the adjust, on both storages
# ----------------------------------------------------------------------
def _adjust_tracks_the_over_set_both_ways(storage):
    ledger = _ledger(storage)
    journal = Journal()
    # Past capacity: applied, and the node joins the set.
    ledger.adjust_uplink_id(SERVER, 260.0, 0.0, journal)
    assert sorted(overcommitted_nodes(ledger)) == [SERVER]
    # Already over: a downward adjust applies and clears it.
    ledger.adjust_uplink_id(SERVER, -50.0, 0.0, journal)
    assert overcommitted_nodes(ledger) == frozenset()
    assert ledger.reserved_up(TOPOLOGY.node(SERVER)) == 210.0
    ledger.adjust_uplink_id(SERVER, 60.0, 0.0, journal)
    assert sorted(overcommitted_nodes(ledger)) == [SERVER]
    # One record per applied adjust; rollback undoes them all.
    assert [op[:2] for op in journal.ops] == [(1, SERVER)] * 3
    ledger.rollback(journal)
    assert _state(ledger) == _state(_ledger(storage))


def test_ledger_adjust_tracks_the_over_set_both_ways():
    _adjust_tracks_the_over_set_both_ways("classic")


def test_temporal_adjust_tracks_the_over_set_both_ways():
    _adjust_tracks_the_over_set_both_ways("temporal")


def _negative_status_leaves_state_untouched(storage):
    """A delta that would drive a value below zero raises, writing nothing."""
    ledger = _ledger(storage)
    ledger.adjust_uplink_id(SERVER, 5.0, 5.0, Journal())
    before = _state(ledger)
    journal = Journal()
    with pytest.raises(LedgerError, match="would become negative"):
        ledger.adjust_uplink_id(SERVER, -9.0, 0.0, journal)
    assert (_state(ledger), journal.ops) == (before, [])


def test_ledger_adjust_negative_status_leaves_state_untouched():
    _negative_status_leaves_state_untouched("classic")


def test_temporal_adjust_negative_status_leaves_state_untouched():
    _negative_status_leaves_state_untouched("temporal")


@pytest.mark.parametrize(
    "make",
    [Ledger, lambda topology: TemporalLedger(topology, 3)],
    ids=["Ledger", "TemporalLedger"],
)
def test_an_over_capacity_adjust_applies_and_rolls_back(make):
    """An adjust always applies: past capacity the uplink joins the
    over-set, and a rollback restores every value and maximum exactly."""
    ledger = make(TOPOLOGY)
    journal = Journal()
    ledger.adjust_uplink_id(RACK, 10.0, 10.0, journal)
    before = _state(ledger)
    savepoint = journal.savepoint()
    ledger.adjust_uplink_id(RACK, 1e6, 0.0, journal)
    assert ledger.reserved_up(TOPOLOGY.node(RACK)) == 10.0 + 1e6
    assert overcommitted_nodes(ledger) == {RACK}
    assert ledger.has_overcommit()
    ledger.rollback(journal, savepoint)
    assert _state(ledger) == before


_DELTA = st.floats(-300.0, 300.0, allow_nan=False).map(lambda x: round(x, 2))


@pytest.mark.parametrize("storage", STORAGES)
@settings(max_examples=100, deadline=None)
@given(
    node=st.sampled_from([SERVER, RACK, TOPOLOGY.root.node_id]),
    start=st.tuples(st.floats(0.0, 600.0), st.floats(0.0, 600.0)),
    deltas=st.lists(st.tuples(_DELTA, _DELTA), min_size=1, max_size=6),
)
def test_would_overcommit_is_the_real_adjust_rolled_back(storage, node, start, deltas):
    """``would_overcommit`` == apply, read the set, roll back."""
    ledger = _ledger(storage, ratios=True)
    ledger.adjust_uplink_id(node, *start, Journal())
    before = _state(ledger)
    predicted = ledger.would_overcommit(node, deltas)
    assert _state(ledger) == before
    journal = Journal()
    try:
        for d_up, d_down in deltas:
            ledger.adjust_uplink_id(node, d_up, d_down, journal)
    except LedgerError:
        applied = None
    else:
        applied = node in overcommitted_nodes(ledger)
    ledger.rollback(journal)
    assert _state(ledger) == before
    assert predicted == applied


# ----------------------------------------------------------------------
# the SecondNet path walk and pipe expansion
# ----------------------------------------------------------------------
def _random_tree(rng: random.Random, n: int) -> tuple[list, list]:
    """Random rooted tree as (parent, depth) lists; node 0 is the root."""
    parent = [0]
    depth = [0]
    for node in range(1, n):
        above = rng.randrange(0, node)
        parent.append(above)
        depth.append(depth[above] + 1)
    return parent, depth


def _ancestors(parent: list, node: int) -> list:
    """``node`` and every node above it, root last."""
    chain = [node]
    while chain[-1] != 0:
        chain.append(parent[chain[-1]])
    return chain


def _walker(parent: list, depth: list) -> SecondNetPlacer:
    """A placer that reads only the given tree (no ledger)."""
    placer = object.__new__(SecondNetPlacer)
    placer._flat = SimpleNamespace(parent=parent, depth=depth)
    return placer


def test_path_link_ids_walks_up_to_the_lca_and_down():
    rng = random.Random(303)
    for _ in range(300):
        n = rng.randint(2, 40)
        parent, depth = _random_tree(rng, n)
        src, dst = rng.randrange(n), rng.randrange(n)
        up, down = _ancestors(parent, src), _ancestors(parent, dst)
        lca = next(node for node in up if node in down)
        want = [(node, False) for node in down[: down.index(lca)]]
        want += [(node, True) for node in up[: up.index(lca)]]
        assert _walker(parent, depth)._path_link_ids(src, dst) == want


FABRICS = {
    "symmetric": lambda: three_level_tree(SPEC),
    "hetero": lambda: heterogeneous_from_spec(SPEC),
    "fat-tree": lambda: fat_tree(4),
}


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_path_link_ids_follow_the_node_tree(fabric):
    """On each shipped fabric the id walk is the ``Node.parent`` walk."""
    topology = FABRICS[fabric]()
    placer = SecondNetPlacer(Ledger(topology))
    servers = topology.servers
    rng = random.Random(7)
    for _ in range(200):
        src, dst = rng.choice(servers), rng.choice(servers)
        up, down = [src], [dst]
        while up[-1].parent is not None:
            up.append(up[-1].parent)
        while down[-1].parent is not None:
            down.append(down[-1].parent)
        lca = next(node for node in up if node in down)
        want = [(node.node_id, False) for node in down[: down.index(lca)]]
        want += [(node.node_id, True) for node in up[: up.index(lca)]]
        assert placer._path_link_ids(src.node_id, dst.node_id) == want


def test_path_link_ids_of_one_node_is_empty():
    assert _walker([0, 0, 1], [0, 1, 2])._path_link_ids(2, 2) == []


def test_expand_edges_matches_the_materialized_pipe_set():
    """The plan rows and the ``Pipe`` objects are two views of one expansion.

    This pins the (edge, i, j) iteration order the demand sums rest on:
    ``repr`` compares the floats and the dicts' insertion order.
    """
    from repro.models.pipe import pipes_from_tag
    from repro.workloads.patterns import linear_chain

    tag = linear_chain("chain", [3, 4, 2], [7.0, 5.0])
    pipes = pipes_from_tag(tag)
    expected_neighbors = {vm: [] for vm in pipes.vms}
    expected_demand = {vm: [0.0, 0.0] for vm in pipes.vms}
    for pipe in pipes.pipes:
        expected_neighbors[pipe.src].append((pipe.dst, pipe.bandwidth, True))
        expected_neighbors[pipe.dst].append((pipe.src, pipe.bandwidth, False))
        expected_demand[pipe.src][0] += pipe.bandwidth
        expected_demand[pipe.dst][1] += pipe.bandwidth
    neighbors, demand, _ = _pipe_plan(tag)
    assert repr(neighbors) == repr(expected_neighbors)
    assert repr(demand) == repr(expected_demand)


# ----------------------------------------------------------------------
# the compiled requirements
# ----------------------------------------------------------------------
def test_eq1_requirement_takes_inf_times_zero_as_zero():
    # An external (unsized) sender has infinitely many VMs outside; a zero
    # rate from it adds 0.0 to the incoming requirement, not NaN.
    tag = Tag("inf-times-zero")
    tag.add_component("ext", external=True)
    tag.add_component("a", 2)
    tag.add_component("b", 2)
    tag.add_edge("ext", "b", 0.0, 5.0)
    tag.add_edge("a", "b", 3.0, 4.0)
    requirement = _compile_uplink_requirement(tag)
    assert requirement({"b": 1}) == (0.0, 4.0)
    assert requirement({"a": 2, "b": 0}) == (6.0, 0.0)


def _hex(pair) -> tuple[str, str]:
    return tuple(float(value).hex() for value in pair)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_compiled_voc_is_voc_uplink_requirement(seed):
    """Bit for bit, including the hose term's insertion order."""
    rng = random.Random(seed)
    tag = _random_tag(rng)
    requirement = _compile_voc_requirement(tag)
    for _ in range(6):
        inside = {
            tier: rng.randint(0, size)
            for tier, size in tag.tier_sizes().items()
            if rng.random() < 0.7
        }
        items = list(inside.items())
        rng.shuffle(items)
        inside = dict(items)
        reference = voc_uplink_requirement(tag, inside)
        assert _hex(requirement(inside)) == _hex((reference.out, reference.into))


# ----------------------------------------------------------------------
# where each loop lives, and that its consumer reaches it there
# ----------------------------------------------------------------------
# The ten loops of the former kernel layer, each by its old name, mapped
# to the one (owner, attribute) that runs it now.  The placed-peer
# triples are built inline in ``SecondNetPlacer.place``; ``_best_server``
# is the method that receives them.
HOMES = {
    "ledger_adjust": (Ledger, "adjust_uplink_id"),
    "temporal_adjust": (TemporalLedger, "adjust_uplink_id"),
    "eq1_requirement": (state, "_compile_uplink_requirement"),
    "voc_requirement": (state, "_compile_voc_requirement"),
    "expand_edges": (secondnet, "_pipe_plan"),
    "placed_peers": (SecondNetPlacer, "_best_server"),
    "rack_order": (SecondNetPlacer, "_rack_order"),
    "pipes_feasible": (SecondNetPlacer, "_feasible"),
    "commit_pipes": (SecondNetPlacer, "_commit"),
    "path_link_ids": (SecondNetPlacer, "_path_link_ids"),
}
KERNELS = sorted(HOMES)
COMPILERS = {"eq1_requirement", "voc_requirement"}


def _web_app() -> Tag:
    """Three tiers of four VMs: more than one server holds them."""
    tag = Tag("web-app")
    tag.add_component("web", 4)
    tag.add_component("logic", 4)
    tag.add_component("db", 4)
    tag.add_undirected_edge("web", "logic", 20.0, 20.0)
    tag.add_undirected_edge("logic", "db", 10.0, 10.0)
    tag.add_self_loop("db", 5.0)
    return tag


def _place_cloudmirror():
    return CloudMirrorPlacer(Ledger(TOPOLOGY)).place(_web_app())


def _place_temporal():
    return CloudMirrorPlacer(_ledger("temporal", ratios=True)).place(_web_app())


def _place_oktopus():
    return OktopusPlacer(Ledger(TOPOLOGY)).place(_web_app())


def _place_secondnet():
    return SecondNetPlacer(Ledger(TOPOLOGY)).place(_web_app())


def _walk_secondnet_path():
    servers = TOPOLOGY.servers
    placer = SecondNetPlacer(Ledger(TOPOLOGY))
    return placer._path_link_ids(servers[0].node_id, servers[-1].node_id)


def _layout(allocation) -> list:
    """Where each VM (SecondNet) or each tier's VMs (the rest) landed."""
    vm_server = getattr(allocation, "vm_server", None)
    if vm_server is not None:
        return sorted((vm, server_id) for vm, server_id in vm_server.items())
    return sorted(
        (server_id, sorted(counts.items()))
        for server_id, counts in allocation.iter_server_placements()
    )


CONSUMERS = {
    "ledger_adjust": _place_cloudmirror,
    "eq1_requirement": _place_cloudmirror,
    "temporal_adjust": _place_temporal,
    "voc_requirement": _place_oktopus,
    "expand_edges": _place_secondnet,
    "placed_peers": _place_secondnet,
    "rack_order": _place_secondnet,
    "pipes_feasible": _place_secondnet,
    "commit_pipes": _place_secondnet,
    "path_link_ids": _walk_secondnet_path,
}


def test_there_are_ten_kernels():
    """Ten loops, each defined by its owner; the package names only the backend."""
    assert len(KERNELS) == 10
    for owner, attribute in HOMES.values():
        assert callable(vars(owner)[attribute])
    assert [name for name in vars(_kernels) if not name.startswith("__")] == ["backend"]
    assert _kernels.backend == "py"


def test_every_kernel_has_a_consumer_here():
    assert sorted(CONSUMERS) == KERNELS


@pytest.mark.parametrize("name", KERNELS)
def test_a_patched_kernel_reaches_its_consumer(name, monkeypatch):
    """A counting wrapper on the loop's home is what a real placement runs.

    For the two requirement compilers the wrapper also counts the calls
    of the compiled closure, which is what the search evaluates.  The
    wrapper returns what the home returns, so the decision is the
    unpatched one.
    """
    unpatched = CONSUMERS[name]()
    owner, attribute = HOMES[name]
    home = vars(owner)[attribute]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        result = home(*args, **kwargs)
        if name not in COMPILERS:
            return result

        def requirement(inside):
            calls.append((inside,))
            return result(inside)

        return requirement

    monkeypatch.setattr(owner, attribute, counted)
    patched = CONSUMERS[name]()
    assert calls, f"no consumer reached {owner.__name__}.{attribute}"
    if name in COMPILERS:
        assert len(calls) > 1, "the compiled requirement was never evaluated"
    if isinstance(unpatched, list):
        assert patched == unpatched == home(*calls[-1])
    else:
        assert isinstance(unpatched, Placement) and isinstance(patched, Placement)
        assert _layout(patched.allocation) == _layout(unpatched.allocation)
