"""Differential parity: every kernel, pure Python vs compiled, bit-exact.

Each test drives one kernel with a seeded-random input stream and
asserts the compiled backend returns *exactly* what the reference
returns — same values (``repr``-compared where floats are involved, so
``-0.0`` vs ``0.0`` or a ULP of drift fails), same journal records, same
mutations, same container iteration order.  The module skips when the
extension is not built; the pure backend is then the only
implementation and has nothing to diverge from.
"""

from __future__ import annotations

import math
import random

import pytest

from repro import _kernels
from repro._kernels import pyref

if not _kernels.compiled_available:  # pragma: no cover - build-dependent
    pytest.skip("compiled kernels not built", allow_module_level=True)

from repro._kernels import _ckernels

EPS = 1e-9


def random_tree(rng: random.Random, n: int) -> tuple[list, list]:
    """Random rooted tree as (parent, depth) lists; node 0 is the root."""
    parent = [0]
    depth = [0]
    for node in range(1, n):
        p = rng.randrange(0, node)
        parent.append(p)
        depth.append(depth[p] + 1)
    return parent, depth


def random_ledger(rng: random.Random, n: int):
    used_up = [round(rng.uniform(0.0, 80.0), 3) for _ in range(n)]
    used_down = [round(rng.uniform(0.0, 80.0), 3) for _ in range(n)]
    cap_up = [rng.choice([50.0, 100.0, math.inf]) for _ in range(n)]
    cap_down = [rng.choice([50.0, 100.0, math.inf]) for _ in range(n)]
    return used_up, used_down, cap_up, cap_down


class TestLedgerAdjust:
    def test_differential(self):
        rng = random.Random(101)
        for _ in range(400):
            n = rng.randint(1, 20)
            state = random_ledger(rng, n)
            args = (
                rng.randrange(n),
                round(rng.uniform(-90.0, 90.0), 3),
                round(rng.uniform(-90.0, 90.0), 3),
                rng.random() < 0.7,
            )
            envs = []
            for impl in (pyref, _ckernels):
                used_up, used_down, cap_up, cap_down = (
                    list(col) for col in state
                )
                over: set = set()
                ops: list = []
                status = impl.ledger_adjust(
                    used_up, used_down, cap_up, cap_down, over, ops,
                    args[0], args[1], args[2], args[3], EPS,
                )
                envs.append(
                    (status, repr(used_up), repr(used_down), repr(ops),
                     sorted(over))
                )
            assert envs[0] == envs[1]

    def test_over_set_membership_tracks_both_ways(self):
        for impl in (pyref, _ckernels):
            used_up = [0.0, 99.0]
            used_down = [0.0, 0.0]
            caps = [100.0, 100.0]
            over = {1}
            ops: list = []
            # Node already over: enforce skips the refusal, and a
            # downward adjust clears the membership.
            status = impl.ledger_adjust(
                used_up, used_down, caps, caps, over, ops, 1, -50.0, 0.0,
                True, EPS,
            )
            assert (status, sorted(over)) == (0, [])
            status = impl.ledger_adjust(
                used_up, used_down, caps, caps, over, ops, 1, 60.0, 0.0,
                False, EPS,
            )
            assert (status, sorted(over)) == (0, [1])

    def test_negative_status_leaves_state_untouched(self):
        for impl in (pyref, _ckernels):
            used_up = [5.0]
            used_down = [5.0]
            caps = [100.0]
            ops: list = []
            status = impl.ledger_adjust(
                used_up, used_down, caps, caps, set(), ops, 0, -9.0, 0.0,
                True, EPS,
            )
            assert status == 2
            assert (used_up, used_down, ops) == ([5.0], [5.0], [])


class TestTemporalAdjust:
    def test_differential(self):
        rng = random.Random(202)
        for _ in range(250):
            windows = rng.choice([1, 3, 8, 70])
            n = rng.randint(1, 8)
            ratios = tuple(
                round(rng.uniform(0.05, 1.0), 3) for _ in range(windows)
            )
            up0 = [round(rng.uniform(0.0, 60.0), 3) for _ in range(n * windows)]
            down0 = [round(rng.uniform(0.0, 60.0), 3) for _ in range(n * windows)]
            cap_up = [rng.choice([40.0, 90.0, math.inf]) for _ in range(n)]
            cap_down = [rng.choice([40.0, 90.0, math.inf]) for _ in range(n)]
            node = rng.randrange(n)
            delta_up = round(rng.uniform(-70.0, 70.0), 3)
            delta_down = round(rng.uniform(-70.0, 70.0), 3)
            enforce = rng.random() < 0.7
            envs = []
            for impl in (pyref, _ckernels):
                up = list(up0)
                down = list(down0)
                max_up = [
                    max(up[i * windows:(i + 1) * windows]) for i in range(n)
                ]
                max_down = [
                    max(down[i * windows:(i + 1) * windows]) for i in range(n)
                ]
                over: set = set()
                ops: list = []
                status = impl.temporal_adjust(
                    up, down, max_up, max_down, cap_up, cap_down, over,
                    ops, ratios, node, windows, delta_up, delta_down,
                    enforce, EPS,
                )
                envs.append(
                    (status, repr(up), repr(down), repr(max_up),
                     repr(max_down), repr(ops), sorted(over))
                )
            assert envs[0] == envs[1]


class TestPathWalk:
    def test_path_link_ids_differential(self):
        rng = random.Random(303)
        for _ in range(300):
            n = rng.randint(2, 40)
            parent, depth = random_tree(rng, n)
            src = rng.randrange(n)
            dst = rng.randrange(n)
            assert pyref.path_link_ids(
                parent, depth, src, dst
            ) == _ckernels.path_link_ids(parent, depth, src, dst)

    def test_same_node_is_an_empty_path(self):
        parent, depth = [0, 0, 1], [0, 1, 2]
        for impl in (pyref, _ckernels):
            assert impl.path_link_ids(parent, depth, 2, 2) == []


def _random_plans(rng):
    """Random expansion plans over a few tiers, pipe_expansion-shaped."""
    tiers = {
        name: [f"{name}:{i}" for i in range(rng.randint(1, 6))]
        for name in ("web", "app", "db")[: rng.randint(1, 3)]
    }
    names = list(tiers)
    plans = []
    for _ in range(rng.randint(0, 5)):
        src = rng.choice(names)
        dst = rng.choice(names)
        per_pair = rng.choice([0.0, round(rng.uniform(0.0, 50.0), 3)])
        if src == dst:
            if len(tiers[src]) < 2:
                continue
            plans.append((tiers[src], tiers[src], per_pair, True))
        else:
            plans.append((tiers[src], tiers[dst], per_pair, False))
    vms = tuple(vm for name in names for vm in tiers[name])
    return plans, vms


class TestExpandEdges:
    def test_differential(self):
        rng = random.Random(404)
        for _ in range(200):
            plans, vms = _random_plans(rng)
            ref = pyref.expand_edges(plans, vms)
            got = _ckernels.expand_edges(plans, vms)
            assert repr(ref) == repr(got)
            # Dict insertion order is part of the contract: the placer
            # sorts the VM names, and the demand sums seed per-VM state.
            assert list(ref[0]) == list(got[0])
            assert list(ref[1]) == list(got[1])

    def test_matches_materialized_pipe_set(self):
        """Both backends reproduce a flattening sweep of pipes_from_tag.

        The plan rows and the Pipe objects are two views of the same
        expansion; this pins the (edge, i, j) iteration-order agreement
        the bit-exactness of the demand sums rests on.
        """
        from repro.models.pipe import pipe_expansion, pipes_from_tag
        from repro.workloads.patterns import linear_chain

        tag = linear_chain("parity", [3, 4, 2], [7.0, 5.0])
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
        for impl in (pyref, _ckernels):
            neighbors, demand = impl.expand_edges(plans, vms)
            assert repr(neighbors) == repr(expected_neighbors)
            assert repr(demand) == repr(expected_demand)


class TestPlacedPeers:
    def test_differential(self):
        rng = random.Random(606)
        for _ in range(300):
            n = rng.randint(0, 10)
            peers = [
                (
                    f"t:{rng.randrange(8)}",
                    rng.choice([0.0, round(rng.uniform(0.0, 20.0), 3)]),
                    rng.random() < 0.5,
                )
                for _ in range(n)
            ]
            vm_ids = {
                f"t:{i}": rng.randrange(5)
                for i in range(8)
                if rng.random() < 0.6
            }
            ref = pyref.placed_peers(peers, vm_ids)
            got = _ckernels.placed_peers(peers, vm_ids)
            assert repr(ref) == repr(got)
            # hosted's server-id insertion order feeds the feasibility
            # sweep's equivalence-class keys.
            assert list(ref[1]) == list(got[1])


class TestRackOrder:
    def test_differential(self):
        rng = random.Random(505)
        for _ in range(300):
            pods = rng.randint(1, 4)
            racks_per_pod = rng.randint(1, 6)
            servers_per_rack = rng.randint(1, 4)
            # Flat ids: root 0, pods, racks, servers (parent pointers).
            parent = [0]
            pod_ids = []
            rack_ids = []
            server_ids = []
            for _ in range(pods):
                pod = len(parent)
                parent.append(0)
                pod_ids.append(pod)
                for _ in range(racks_per_pod):
                    rack = len(parent)
                    parent.append(pod)
                    rack_ids.append(rack)
                    for _ in range(servers_per_rack):
                        server = len(parent)
                        parent.append(rack)
                        server_ids.append(server)
            free = [0] * len(parent)
            for rack in rack_ids:
                free[rack] = rng.randint(0, 3)
            peers = [
                (rng.choice(server_ids), round(rng.uniform(0.0, 20.0), 3),
                 rng.random() < 0.5)
                for _ in range(rng.randint(0, 6))
            ]
            assert pyref.rack_order(
                parent, free, rack_ids, peers
            ) == _ckernels.rack_order(parent, free, rack_ids, peers)


class TestPipeCommitKernels:
    def _fabric(self, rng: random.Random):
        n = rng.randint(4, 30)
        parent, depth = random_tree(rng, n)
        used_up, used_down, cap_up, cap_down = random_ledger(rng, n)
        server = rng.randrange(n)
        peers = [
            (rng.randrange(n), round(rng.uniform(0.0, 30.0), 3),
             rng.random() < 0.5)
            for _ in range(rng.randint(0, 5))
        ]
        return parent, depth, used_up, used_down, cap_up, cap_down, server, peers

    def test_pipes_feasible_differential(self):
        rng = random.Random(606)
        for _ in range(300):
            args = self._fabric(rng)
            assert pyref.pipes_feasible(*args) == _ckernels.pipes_feasible(*args)

    def test_commit_pipes_differential(self):
        rng = random.Random(707)
        for _ in range(300):
            (parent, depth, used_up0, used_down0, cap_up, cap_down,
             server, peers) = self._fabric(rng)
            reserved0 = {
                node: [round(rng.uniform(0.0, 9.0), 3), 0.0]
                for node in range(len(parent))
                if rng.random() < 0.3
            }
            envs = []
            for impl in (pyref, _ckernels):
                used_up = list(used_up0)
                used_down = list(used_down0)
                over: set = set(range(len(parent)))
                ops: list = []
                reserved = {node: list(entry) for node, entry in reserved0.items()}
                status = impl.commit_pipes(
                    parent, depth, used_up, used_down, cap_up, cap_down,
                    over, ops, reserved, server, peers, EPS,
                )
                envs.append(
                    (status, repr(used_up), repr(used_down), repr(ops),
                     repr(reserved), list(reserved), sorted(over))
                )
                # One (1, node_id, prev_up, prev_down) record per touched
                # node on success, nothing at all on refusal.
                assert len({op[1] for op in ops}) == len(ops)
                assert status == 0 or (ops, reserved) == ([], reserved0)
            assert envs[0] == envs[1]


class TestRequirementKernels:
    def _edges(self, rng: random.Random, names: list[str]) -> tuple:
        rows = []
        for _ in range(rng.randint(0, 8)):
            src, dst = rng.choice(names), rng.choice(names)
            rows.append(
                (
                    src,
                    dst,
                    rng.choice([0.0, round(rng.uniform(0.0, 10.0), 3)]),
                    rng.choice([0.0, round(rng.uniform(0.0, 10.0), 3)]),
                    rng.choice([None, rng.randint(1, 6)]),
                    rng.choice([None, rng.randint(1, 6)]),
                )
            )
        return tuple(rows)

    def test_eq1_differential(self):
        rng = random.Random(808)
        names = ["web", "app", "db", "ext"]
        for _ in range(400):
            edges = self._edges(rng, names)
            inside = {
                name: rng.randint(0, 5)
                for name in names
                if rng.random() < 0.8
            }
            assert repr(pyref.eq1_requirement(edges, inside)) == repr(
                _ckernels.eq1_requirement(edges, inside)
            )

    def test_voc_differential(self):
        rng = random.Random(909)
        names = ["web", "app", "db", "ext"]
        for _ in range(400):
            trunk = self._edges(rng, names)
            loops = {
                name: (round(rng.uniform(0.0, 8.0), 3), rng.randint(1, 6))
                for name in names
                if rng.random() < 0.5
            }
            inside = {
                name: rng.randint(0, 5)
                for name in names
                if rng.random() < 0.8
            }
            assert repr(pyref.voc_requirement(trunk, loops, inside)) == repr(
                _ckernels.voc_requirement(trunk, loops, inside)
            )
