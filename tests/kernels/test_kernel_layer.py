"""The kernel layer: one implementation, reached through module attributes.

:mod:`repro._kernels` re-exports the ten functions of
:mod:`repro._kernels.pyref`, and every consumer looks a kernel up on the
package at call time (``_kernels.ledger_adjust(...)``), so a test that
patches ``_kernels.<name>`` reaches every caller, including closures
compiled before the patch.  Three groups:

* **re-export** — each package attribute *is* the ``pyref`` function;
* **patch-through** — a counting wrapper installed on the package is
  what a real placement calls, for each kernel and its consumer;
* **contract** — the per-kernel conventions the module docstring of
  ``pyref`` states: the overcommit set, the untouched state behind a
  negative status, the path walk, and the pipe expansion's order.
"""

from __future__ import annotations

import math
import random

import pytest

from repro import _kernels
from repro._kernels import pyref
from repro.core.tag import Tag
from repro.placement.base import Placement
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.placement.oktopus import OktopusPlacer
from repro.placement.secondnet import SecondNetPlacer
from repro.temporal.admission import TemporalLedger
from repro.temporal.profile import diurnal_profile
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Ledger

KERNELS = sorted(pyref.__all__)
EPS = 1e-9

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


# ----------------------------------------------------------------------
# re-export
# ----------------------------------------------------------------------
def test_there_are_ten_kernels():
    assert len(KERNELS) == 10
    assert set(_kernels.__all__) == set(KERNELS) | {"backend"}
    assert _kernels.backend == "py"


@pytest.mark.parametrize("name", KERNELS)
def test_the_package_re_exports_the_pyref_function(name):
    assert getattr(_kernels, name) is getattr(pyref, name)


# ----------------------------------------------------------------------
# patch-through: each kernel is looked up on the package at call time
# ----------------------------------------------------------------------
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
    ledger = TemporalLedger(TOPOLOGY, WINDOWS)
    ledger.set_ratios(diurnal_profile(WINDOWS))
    return CloudMirrorPlacer(ledger).place(_web_app())


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
        return sorted((vm, server.node_id) for vm, server in vm_server.items())
    return sorted(
        (server.node_id, sorted(counts.items()))
        for server, counts in allocation.iter_server_placements()
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


def test_every_kernel_has_a_consumer_here():
    assert sorted(CONSUMERS) == KERNELS


@pytest.mark.parametrize("name", KERNELS)
def test_a_patched_kernel_reaches_its_consumer(name, monkeypatch):
    unpatched = CONSUMERS[name]()
    calls = []
    kernel = getattr(_kernels, name)

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(_kernels, name, counted)
    patched = CONSUMERS[name]()
    assert calls, f"no consumer called _kernels.{name}"
    if isinstance(unpatched, list):
        assert patched == unpatched == kernel(*calls[-1])
    else:
        # The wrapper returns what the kernel returns: the same decision.
        assert isinstance(unpatched, Placement) and isinstance(patched, Placement)
        assert _layout(patched.allocation) == _layout(unpatched.allocation)


# ----------------------------------------------------------------------
# contract
# ----------------------------------------------------------------------
def test_ledger_adjust_tracks_the_over_set_both_ways():
    used_up = [0.0, 99.0]
    used_down = [0.0, 0.0]
    caps = [100.0, 100.0]
    over = {1}
    ops: list = []
    # Node already over: enforce skips the refusal, and a downward
    # adjust clears the membership.
    status = pyref.ledger_adjust(
        used_up, used_down, caps, caps, over, ops, 1, -50.0, 0.0, True, EPS
    )
    assert (status, sorted(over)) == (0, [])
    status = pyref.ledger_adjust(
        used_up, used_down, caps, caps, over, ops, 1, 60.0, 0.0, False, EPS
    )
    assert (status, sorted(over)) == (0, [1])
    assert ops == [(1, 1, 99.0, 0.0), (1, 1, 49.0, 0.0)]


def test_ledger_adjust_negative_status_leaves_state_untouched():
    used_up = [5.0]
    used_down = [5.0]
    caps = [100.0]
    ops: list = []
    status = pyref.ledger_adjust(
        used_up, used_down, caps, caps, set(), ops, 0, -9.0, 0.0, True, EPS
    )
    assert status == 2
    assert (used_up, used_down, ops) == ([5.0], [5.0], [])


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
        assert pyref.path_link_ids(parent, depth, src, dst) == want


def test_path_link_ids_of_one_node_is_empty():
    parent, depth = [0, 0, 1], [0, 1, 2]
    assert pyref.path_link_ids(parent, depth, 2, 2) == []


def test_expand_edges_matches_the_materialized_pipe_set():
    """The plan rows and the ``Pipe`` objects are two views of one expansion.

    This pins the (edge, i, j) iteration order the demand sums rest on:
    ``repr`` compares the floats and the dicts' insertion order.
    """
    from repro.models.pipe import pipe_expansion, pipes_from_tag
    from repro.workloads.patterns import linear_chain

    tag = linear_chain("chain", [3, 4, 2], [7.0, 5.0])
    vms, plans = pipe_expansion(tag)
    pipes = pipes_from_tag(tag)
    assert pipes.vms == vms
    expected_neighbors = {vm: [] for vm in vms}
    expected_demand = {vm: [0.0, 0.0] for vm in vms}
    for pipe in pipes.pipes:
        expected_neighbors[pipe.src].append((pipe.dst, pipe.bandwidth, True))
        expected_neighbors[pipe.dst].append((pipe.src, pipe.bandwidth, False))
        expected_demand[pipe.src][0] += pipe.bandwidth
        expected_demand[pipe.dst][1] += pipe.bandwidth
    neighbors, demand = pyref.expand_edges(plans, vms)
    assert repr(neighbors) == repr(expected_neighbors)
    assert repr(demand) == repr(expected_demand)


def test_eq1_requirement_takes_inf_times_zero_as_zero():
    # An external (unsized) sender has infinitely many VMs outside; a zero
    # rate from it adds 0.0 to the incoming requirement, not NaN.
    edges = (("ext", "b", 0.0, 5.0, None, 2), ("a", "b", 3.0, 4.0, 2, 2))
    assert pyref.eq1_requirement(edges, {"b": 1}) == (0.0, 4.0)
    assert pyref.eq1_requirement(edges, {"a": 2, "b": 0}) == (6.0, 0.0)
