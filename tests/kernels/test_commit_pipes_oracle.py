"""The grouped SecondNet commit against the per-pipe loop it replaced.

``SecondNetPlacer._commit`` sums each path link's pipe bandwidths in
pipe order, checks every touched node once and writes one journal
record per node.  :func:`per_pipe_commit` below is the loop it
replaced, kept as the oracle: one journalled adjust per (pipe, path
link) — :meth:`Ledger.adjust_uplink_id`'s arithmetic — refused, and the
loop stopped, at the first that :meth:`Ledger.would_overcommit` says
would end over capacity.  Over random fabrics — masked (zero-capacity) links,
nodes already over capacity in the direction a VM does not touch,
overflows part-way through a VM's pipes — the commit must give the
oracle's verdict and, on success, its used and reserved values bit for
bit (``repr``); a refusal writes no bandwidth; and ``Ledger.rollback``
over the grouped records restores the pre-state.

On a random tree the placer runs over a stand-in ledger holding the
arrays (:func:`_committer`); slots are not this suite's concern.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

from repro.core.constants import EPSILON as EPS
from repro.placement.secondnet import SecondNetPlacer
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Journal, Ledger


def _arrays_ledger(used_up, used_down, cap_up, cap_down, over) -> Ledger:
    """A :class:`Ledger` over the given arrays, every slot granted.

    Path links sit strictly below the LCA, so no root id is needed.
    """
    ledger = object.__new__(Ledger)
    ledger._root_id = -1
    ledger._used_up, ledger._used_down = used_up, used_down
    ledger._cap_up, ledger._cap_down = cap_up, cap_down
    ledger._over = over
    ledger.reserve_slots = lambda server_id, count, journal: True
    return ledger


def _committer(parent, depth, used_up, used_down, cap_up, cap_down, over):
    """A SecondNet placer over the given tree and arrays."""
    placer = object.__new__(SecondNetPlacer)
    placer._flat = SimpleNamespace(
        parent=parent, depth=depth, cap_up=cap_up, cap_down=cap_down
    )
    placer.ledger = _arrays_ledger(used_up, used_down, cap_up, cap_down, over)
    return placer


def commit(placer, ops, reserved, server_id, peers) -> int:
    """``placer._commit`` of one VM; 0 when applied, 1 when refused."""
    allocation = SimpleNamespace(journal=Journal(ops), _reserved=reserved, vm_server={})
    return 0 if placer._commit(allocation, "vm", server_id, peers) else 1


def per_pipe_commit(
    parent, depth, used_up, used_down, cap_up, cap_down, over, ops,
    reserved, server_id, peers,
):
    """One journalled ``adjust_uplink_id`` per (pipe, path link), each
    refused when it would end over capacity.

    Zero-bandwidth pipes and colocated peers are skipped, as the placer
    has always skipped them.
    """
    placer = _committer(parent, depth, used_up, used_down, cap_up, cap_down, over)
    journal = Journal(ops)
    for peer_id, bandwidth, outgoing in peers:
        if peer_id == server_id or bandwidth == 0.0:
            continue
        if outgoing:
            src_id, dst_id = server_id, peer_id
        else:
            src_id, dst_id = peer_id, server_id
        for node_id, is_up in placer._path_link_ids(src_id, dst_id):
            delta_up = bandwidth if is_up else 0.0
            delta_down = 0.0 if is_up else bandwidth
            ledger = placer.ledger
            if ledger.would_overcommit(node_id, [(delta_up, delta_down)]):
                return 1
            ledger.adjust_uplink_id(node_id, delta_up, delta_down, journal)
            entry = reserved.get(node_id)
            if entry is None:
                entry = reserved[node_id] = [0.0, 0.0]
            entry[0] += delta_up
            entry[1] += delta_down
    return 0


def random_fabric(rng: random.Random):
    """A random tree, ledger state, reserved record and one VM's peers."""
    n = rng.randint(3, 30)
    parent, depth = [0], [0]
    for node in range(1, n):
        up = rng.randrange(node)
        parent.append(up)
        depth.append(depth[up] + 1)
    caps = [0.0, 40.0, 100.0, 250.0, math.inf]
    cap_up = [rng.choice(caps) for _ in range(n)]
    cap_down = [rng.choice(caps) for _ in range(n)]
    # Mostly within capacity, sometimes already over it (in either
    # direction); always non-negative, as the ledger keeps it.
    used_up = [round(rng.uniform(0.0, 60.0), 3) for _ in range(n)]
    used_down = [round(rng.uniform(0.0, 60.0), 3) for _ in range(n)]
    reserved = {
        node: [round(rng.uniform(0.0, 20.0), 3), round(rng.uniform(0.0, 20.0), 3)]
        for node in range(n)
        if rng.random() < 0.3
    }
    server = rng.randrange(n)
    # Few distinct peer servers, many pipes: shared paths and shared
    # links, colocated peers and zero-bandwidth pipes included.
    servers = [rng.randrange(n) for _ in range(rng.randint(1, 5))]
    peers = [
        (
            rng.choice(servers + [server]),
            rng.choice([0.0, 0.1, round(rng.uniform(0.0, 30.0), 3)]),
            rng.random() < 0.5,
        )
        for _ in range(rng.randint(0, 14))
    ]
    return parent, depth, used_up, used_down, cap_up, cap_down, reserved, server, peers


def _state(used_up, used_down, over, reserved):
    return repr(used_up), repr(used_down), sorted(over), repr(reserved)


def test_grouped_commit_matches_the_per_pipe_oracle():
    rng = random.Random(2014)
    outcomes = {0: 0, 1: 0}
    for _ in range(1500):
        (parent, depth, used_up, used_down, cap_up, cap_down, reserved,
         server, peers) = random_fabric(rng)
        over = {
            node for node in range(len(parent))
            if used_up[node] > cap_up[node] + EPS
            or used_down[node] > cap_down[node] + EPS
        }
        before = _state(used_up, used_down, over, reserved)
        pre_up, pre_down = list(used_up), list(used_down)
        ref = (list(used_up), list(used_down), set(over),
               {k: list(v) for k, v in reserved.items()})
        want = per_pipe_commit(
            parent, depth, *ref[:2], cap_up, cap_down, ref[2], [], ref[3],
            server, peers,
        )
        ops: list = []
        placer = _committer(parent, depth, used_up, used_down, cap_up, cap_down, over)
        got = commit(placer, ops, reserved, server, peers)
        assert got == want
        outcomes[got] += 1
        if got != 0:
            assert ops == []
            assert _state(used_up, used_down, over, reserved) == before
            continue
        assert _state(used_up, used_down, over, reserved) == _state(*ref)
        # One (1, node_id, prev_up, prev_down) record per touched node,
        # holding the node's values before this VM.
        nodes = [record[1] for record in ops]
        assert len(nodes) == len(set(nodes))
        for tag, node, prev_up, prev_down in ops:
            assert tag == 1
            assert repr((prev_up, prev_down)) == repr((pre_up[node], pre_down[node]))
    # Both verdicts are well represented.
    assert min(outcomes.values()) > 300


def test_each_refusal_kind_writes_nothing():
    """Masked link, over capacity the other way, overflow mid-VM."""
    # Root 0 -> rack 1 -> servers 2, 3; a second rack 4 -> server 5.
    parent = [0, 0, 1, 1, 0, 4]
    depth = [0, 1, 2, 2, 1, 2]
    inf = math.inf
    cases = {
        # Server 3's downlink is masked: any pipe into it is refused.
        "masked": ([inf, inf, inf, 0.0, inf, inf], [0.0] * 6, [(3, 1.0, True)]),
        # Server 2's downlink is already over; the VM only sends from 2.
        "other direction": (
            [inf, inf, 100.0, inf, inf, inf], [0.0, 0.0, 500.0, 0.0, 0.0, 0.0],
            [(3, 1.0, True)],
        ),
        # Each pipe fits rack 1's 100 Mbps uplink alone; the third
        # takes it over 100 part-way through the VM.
        "mid-VM overflow": (
            [inf, 100.0, inf, inf, inf, inf], [0.0] * 6,
            [(5, 40.0, True), (5, 40.0, True), (5, 40.0, True)],
        ),
    }
    for name, (cap, down, peers) in cases.items():
        used_up = [0.0] * 6
        used_down = list(down)
        over = {2} if name == "other direction" else set()
        ops: list = []
        reserved: dict = {}
        ref = (list(used_up), list(used_down), set(over), {})
        assert per_pipe_commit(
            parent, depth, *ref[:2], cap, cap, ref[2], [], ref[3], 2,
            peers,
        ) == 1, name
        placer = _committer(parent, depth, used_up, used_down, cap, cap, over)
        status = commit(placer, ops, reserved, 2, peers)
        assert status == 1, name
        assert (used_up, used_down, ops, reserved) == (
            [0.0] * 6, down, [], {}
        ), name


def test_ledger_rollback_restores_the_pre_state():
    """Several VMs commit into one journal; ``Ledger.rollback`` undoes all."""
    rng = random.Random(30)
    topology = three_level_tree(
        DatacenterSpec(pods=2, racks_per_pod=2, servers_per_rack=3, slots_per_server=4)
    )
    flat = topology.flat
    servers = [node.node_id for node in topology.servers]
    for _ in range(60):
        ledger = Ledger(topology)
        placer = SecondNetPlacer(ledger)
        for node in range(flat.size):
            if node != flat.root_id:
                ledger._used_up[node] = round(rng.uniform(0.0, 300.0), 3)
                ledger._used_down[node] = round(rng.uniform(0.0, 300.0), 3)
                ledger._update_overcommit(node)
        before = _state(ledger._used_up, ledger._used_down, ledger._over, {})
        allocation = SimpleNamespace(journal=Journal(), _reserved={}, vm_server={})
        for vm in range(rng.randint(1, 6)):
            peers = [
                (rng.choice(servers), round(rng.uniform(0.0, 80.0), 3),
                 rng.random() < 0.5)
                for _ in range(rng.randint(0, 10))
            ]
            if not placer._commit(allocation, vm, rng.choice(servers), peers):
                break
        journal = allocation.journal
        ledger.rollback(journal)
        assert journal.ops == []
        assert _state(ledger._used_up, ledger._used_down, ledger._over, {}) == before
