"""SecondNet's rack order against the per-rack sum it replaced.

``SecondNetPlacer._rack_order`` prices racks once per cost class: racks
in one pod that host no placed peer take the same branch for every
peer, so they share a single computed cost, and a rack hosting a peer
is its own class.  :func:`scan_rack_order`
(``tests/placement/scan_candidates``) is the loop that priced every
rack separately, kept as the oracle: over random trees and the
symmetric, heterogeneous and fat-tree fabrics, with random free-slot
aggregates and random placed peers, the method must return the oracle's
rack list, order included.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.placement.secondnet import SecondNetPlacer
from repro.topology.builder import (
    DatacenterSpec,
    heterogeneous_from_spec,
    three_level_tree,
)
from tests.fabrics import fat_tree
from tests.placement.scan_candidates import scan_rack_order

SPEC = DatacenterSpec(
    servers_per_rack=4,
    racks_per_pod=3,
    pods=3,
    slots_per_server=4,
    server_uplink=1000.0,
    tor_oversub=4.0,
    agg_oversub=2.0,
)

FABRICS = {
    "symmetric": lambda: three_level_tree(SPEC),
    "hetero": lambda: heterogeneous_from_spec(SPEC),
    "fat-tree": lambda: fat_tree(4),
}


def rack_order(parent: list, free: list, racks: list, peers: list) -> list:
    """``_rack_order`` of a placer over the given tree, slots and racks."""
    placer = object.__new__(SecondNetPlacer)
    placer._flat = SimpleNamespace(parent=parent)
    placer.ledger = SimpleNamespace(_free_subtree=free)
    placer._rack_ids = racks
    return placer._rack_order(peers)


def _bandwidth(rng: random.Random) -> float:
    # Zeros and repeats make cost ties, so the sort's stability counts.
    return rng.choice([0.0, 10.0, 0.1, round(rng.uniform(0.0, 300.0), 3)])


def _peers(rng: random.Random, servers: list[int]) -> list:
    # Few distinct peer servers, several pipes each: many racks host
    # no peer and share their pod's class, a few host one.
    chosen = rng.sample(servers, min(len(servers), rng.randint(1, 4)))
    return [
        (rng.choice(chosen), _bandwidth(rng), rng.random() < 0.5)
        for _ in range(rng.randint(0, 10))
    ]


def random_tree(rng: random.Random):
    """Parent array, candidate racks and peer servers of a random tree.

    Racks are any non-root nodes; peers are nodes at depth two or more,
    so a peer's rack has a parent, as on every real fabric.
    """
    n = rng.randint(4, 40)
    parent, depth = [-1], [0]
    for node in range(1, n):
        up = rng.randrange(node)
        parent.append(up)
        depth.append(depth[up] + 1)
    racks = [node for node in range(1, n) if rng.random() < 0.7]
    rng.shuffle(racks)
    servers = [node for node in range(n) if depth[node] >= 2]
    return parent, racks, servers


def test_rack_order_matches_the_per_rack_oracle_on_random_trees():
    rng = random.Random(2014)
    shared = 0
    for _ in range(2000):
        parent, racks, servers = random_tree(rng)
        if not servers:
            continue
        free = [rng.choice([0, 0, 1, 3, 8]) for _ in parent]
        peers = _peers(rng, servers)
        want = scan_rack_order(parent, free, racks, peers)
        assert rack_order(parent, free, racks, peers) == want
        peer_racks = {parent[peer_id] for peer_id, _, _ in peers}
        pods = [parent[rack] for rack in want if rack not in peer_racks]
        shared += len(pods) > len(set(pods))
    # Classes with several members (the shared-cost case) are common.
    assert shared > 500


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_rack_order_matches_the_per_rack_oracle_on_fabrics(fabric):
    flat = FABRICS[fabric]().flat
    racks = list(flat.level_ids[1])
    servers = list(flat.server_order)
    rng = random.Random(30)
    for _ in range(300):
        free = [rng.choice([0, 1, 4, 16]) for _ in range(flat.size)]
        peers = _peers(rng, servers)
        want = scan_rack_order(flat.parent, free, racks, peers)
        assert rack_order(flat.parent, free, racks, peers) == want
