"""The placement hot kernels.

The ledgers and placers call these functions in their inner loops.  They
share one contract: the ``inf * 0 == 0`` convention, a fixed
accumulation order, and the journal record shapes below.  The oracle
suites (``tests/kernels/``) pin the grouped kernels against the
per-step loops they replaced, and the golden-fixture grid pins the
whole stack against the pre-refactor one.

The three hot loops ``repro profile`` showed dominating trial time after
the flat-array rebuild (PRs 4-6):

``ledger_adjust`` / ``temporal_adjust``
    The fused reservation adjust + feasibility check behind
    :meth:`repro.topology.ledger.Ledger.adjust_uplink_id` and the
    W-plane :meth:`repro.temporal.admission.TemporalLedger.adjust_uplink_id`
    — including the journal append and overcommit-set maintenance, so
    the whole mutation is one call.
``path_link_ids`` / ``pipes_feasible`` / ``commit_pipes``
    The SecondNet virtual-link path machinery: the LCA path-link walk,
    the per-candidate path feasibility check over the accumulated pipe
    demands, and the per-VM pipe commit (one walk per distinct path,
    per-link sums in pipe order, one check and one journal record per
    touched node, plus the reservation recording).
``eq1_requirement`` / ``voc_requirement``
    The flattened-edge Eq. 1 / footnote-7 VOC requirement evaluation
    that :mod:`repro.placement.state` compiles per tag.

All functions take the ledger's raw id-indexed lists (plus plain ints /
floats) and read and mutate that very state — there is no marshalling
layer and nothing to copy back.

Status codes shared by the adjust kernels:

=====  ==============================================================
``0``  applied (journalled)
``1``  refused — would exceed capacity under ``enforce``
``2``  invalid — reservation would become negative (caller raises)
=====  ==============================================================

Journal record shapes (tag value 1 is ``OP_BANDWIDTH`` for both
ledgers; the consuming modules assert this at import):

* classic: ``(1, node_id, prev_up, prev_down)`` — one per
  ``ledger_adjust``, and one per touched node per ``commit_pipes`` call
  (the node's values before that VM's pipes)
* temporal: ``(1, node_id, prev_up_column, prev_down_column,
  prev_max_up, prev_max_down)``

A refused adjust or ``commit_pipes`` (status ``1``) writes nothing: no
ledger value, no journal record, no overcommit-set or ``reserved``
change.
"""

from __future__ import annotations

import math

__all__ = [
    "commit_pipes",
    "eq1_requirement",
    "expand_edges",
    "ledger_adjust",
    "path_link_ids",
    "pipes_feasible",
    "placed_peers",
    "rack_order",
    "temporal_adjust",
    "voc_requirement",
]

_INF = math.inf

# Shared with repro.topology.ledger.OP_BANDWIDTH / the temporal ledger's
# _OP_BANDWIDTH (both tag value 1); asserted by the consumers.
_OP_BANDWIDTH = 1


# ----------------------------------------------------------------------
# kernel 1: fused reservation adjust + feasibility check
# ----------------------------------------------------------------------


def ledger_adjust(
    used_up: list,
    used_down: list,
    cap_up: list,
    cap_down: list,
    over: set,
    ops: list,
    node_id: int,
    delta_up: float,
    delta_down: float,
    enforce: bool,
    eps: float,
) -> int:
    """The classic ledger's per-uplink adjust (see module docstring).

    Mutates ``used_up`` / ``used_down`` / ``over`` in place and appends
    one ``(1, node_id, prev_up, prev_down)`` journal record on success.
    The root id is the *caller's* fast path — it never reaches here.
    """
    prev_up = used_up[node_id]
    prev_down = used_down[node_id]
    new_up = prev_up + delta_up
    new_down = prev_down + delta_down
    if new_up < -eps or new_down < -eps:
        return 2
    is_over = (
        new_up > cap_up[node_id] + eps or new_down > cap_down[node_id] + eps
    )
    if enforce and is_over:
        return 1
    used_up[node_id] = new_up if new_up > 0.0 else 0.0
    used_down[node_id] = new_down if new_down > 0.0 else 0.0
    if is_over:
        over.add(node_id)
    else:
        over.discard(node_id)
    ops.append((_OP_BANDWIDTH, node_id, prev_up, prev_down))
    return 0


def temporal_adjust(
    up: list,
    down: list,
    max_up: list,
    max_down: list,
    cap_up: list,
    cap_down: list,
    over: set,
    ops: list,
    ratios: tuple,
    node_id: int,
    windows: int,
    delta_up: float,
    delta_down: float,
    enforce: bool,
    eps: float,
) -> int:
    """The W-plane fused scaled-delta adjust across one node's column.

    Node ``node_id``'s column is the contiguous slice ``[node_id * W,
    (node_id + 1) * W)`` of ``up`` / ``down``.  One journal record —
    ``(1, node_id, prev_up_column, prev_down_column, prev_max_up,
    prev_max_down)`` — undoes the whole column at once.
    """
    base = node_id * windows
    prev_up = up[base : base + windows]
    prev_down = down[base : base + windows]
    new_up = [p + delta_up * r for p, r in zip(prev_up, ratios)]
    new_down = [p + delta_down * r for p, r in zip(prev_down, ratios)]
    if delta_up < 0.0 or delta_down < 0.0:
        # Columns can only dip negative on a release-style delta.
        if min(new_up) < -eps or min(new_down) < -eps:
            return 2
        new_up = [v if v > 0.0 else 0.0 for v in new_up]
        new_down = [v if v > 0.0 else 0.0 for v in new_down]
    col_max_up = max(new_up)
    col_max_down = max(new_down)
    is_over = (
        col_max_up > cap_up[node_id] + eps
        or col_max_down > cap_down[node_id] + eps
    )
    if enforce and is_over:
        return 1
    up[base : base + windows] = new_up
    down[base : base + windows] = new_down
    ops.append(
        (
            _OP_BANDWIDTH,
            node_id,
            prev_up,
            prev_down,
            max_up[node_id],
            max_down[node_id],
        )
    )
    max_up[node_id] = col_max_up
    max_down[node_id] = col_max_down
    if is_over:
        over.add(node_id)
    else:
        over.discard(node_id)
    return 0


# ----------------------------------------------------------------------
# kernel 2: the SecondNet path-link machinery
# ----------------------------------------------------------------------


def path_link_ids(
    parent: list, depth: list, src_id: int, dst_id: int
) -> list:
    """Uplink ids crossed from server ``src_id`` to server ``dst_id``.

    ``(node_id, is_up)`` pairs: the up direction on the source side of
    the LCA, the down direction on the destination side (destination
    side first, matching the order the pointer-walk implementation
    reserved in).
    """
    a = src_id
    b = dst_id
    while depth[a] > depth[b]:
        a = parent[a]
    while depth[b] > depth[a]:
        b = parent[b]
    while a != b:
        a = parent[a]
        b = parent[b]
    lca = a
    links = []
    node_id = dst_id
    while node_id != lca:
        links.append((node_id, False))
        node_id = parent[node_id]
    node_id = src_id
    while node_id != lca:
        links.append((node_id, True))
        node_id = parent[node_id]
    return links


def expand_edges(plans: list, vms: tuple) -> tuple:
    """Per-VM peer lists and (out, in) demand of one tenant's pipe model.

    ``plans`` holds ``(src_tier, dst_tier, per_pair, self_loop)`` rows
    (:func:`repro.models.pipe.pipe_expansion`); this performs the
    quadratic per-pair expansion those rows describe without ever
    materializing ``Pipe`` objects.  Returns ``(neighbors, demand)``:
    ``neighbors[vm]`` lists ``(peer, bandwidth, outgoing)`` triples in
    pipe order — row by row, source-major, self-loops skipping the
    diagonal — and ``demand[vm]`` is the mutable ``[out, in]`` sum
    accumulated in the same order, so both match what the retired
    pipe-object path (``pipes_from_tag`` + a flattening sweep) produced
    bit for bit.  Every VM gets an entry, including pipe-less ones.
    """
    neighbors: dict = {vm: [] for vm in vms}
    demand: dict = {vm: [0.0, 0.0] for vm in vms}
    for src_tier, dst_tier, per_pair, self_loop in plans:
        for i, src in enumerate(src_tier):
            src_peers = neighbors[src]
            src_demand = demand[src]
            for j, dst in enumerate(dst_tier):
                if self_loop and i == j:
                    continue
                # (peer, bandwidth, True when this VM is the sender)
                src_peers.append((dst, per_pair, True))
                neighbors[dst].append((src, per_pair, False))
                src_demand[0] += per_pair
                demand[dst][1] += per_pair
    return neighbors, demand


def placed_peers(peers: list, vm_ids: dict) -> tuple:
    """Filter one VM's peer triples down to the already-placed ones.

    ``peers`` holds ``(name, bandwidth, outgoing)`` triples (one
    :func:`expand_edges` row); ``vm_ids`` maps placed VM names to their
    server ids.  Returns ``(placed, hosted)``: ``placed`` rewrites each
    placed peer to ``(server_id, bandwidth, outgoing)`` in peer order,
    ``hosted`` maps a server id to the ``placed`` indices it hosts (the
    equivalence-class key of the per-rack feasibility sweep).
    """
    placed: list = []
    hosted: dict = {}
    get = vm_ids.get
    for name, bandwidth, outgoing in peers:
        server_id = get(name)
        if server_id is None:
            continue
        indices = hosted.get(server_id)
        if indices is None:
            indices = hosted[server_id] = []
        indices.append(len(placed))
        placed.append((server_id, bandwidth, outgoing))
    return placed, hosted


def rack_order(
    parent: list, free_subtree: list, rack_ids: list, peers: list
) -> list:
    """Racks with free slots, in ascending pipe-cost order (stable).

    The SecondNet rack sweep: of the ``rack_ids`` whose subtree still
    has free VM slots (``free_subtree`` is the ledger's id-indexed
    aggregate), order by the bandwidth-hop cost toward the placed
    ``(peer_id, bandwidth, outgoing)`` triples — ``bandwidth * 2`` for
    a peer in the rack, ``* 4`` in the same pod, ``* 6`` across pods,
    accumulated in peer order.  Racks in the same pod hosting no placed
    peer take the same branch for every term, so they share one
    computed cost (the candidate index's equivalence classes); ties
    keep input order, i.e. exactly a stable sort of the surviving ids
    by cost.  With no peers every cost is zero and the filtered ids
    come back unreordered.
    """
    feasible = [rack_id for rack_id in rack_ids if free_subtree[rack_id] > 0]
    if not peers:
        return feasible
    peer_rack_ids = {parent[peer_id] for peer_id, _, _ in peers}
    cost_of: dict = {}
    costs = []
    for rack_id in feasible:
        pod_id = parent[rack_id]
        klass = (pod_id, rack_id if rack_id in peer_rack_ids else -1)
        cost = cost_of.get(klass)
        if cost is None:
            cost = 0.0
            for peer_id, bandwidth, _ in peers:
                peer_rack = parent[peer_id]
                if peer_rack == rack_id:
                    cost += bandwidth * 2
                elif parent[peer_rack] == pod_id:
                    cost += bandwidth * 4
                else:
                    cost += bandwidth * 6
            cost_of[klass] = cost
        costs.append(cost)
    order = list(range(len(feasible)))
    order.sort(key=costs.__getitem__)
    return [feasible[position] for position in order]


def pipes_feasible(
    parent: list,
    depth: list,
    used_up: list,
    used_down: list,
    cap_up: list,
    cap_down: list,
    server_id: int,
    peers: list,
) -> bool:
    """Can ``server_id`` host a VM whose placed peers are ``peers``?

    ``peers`` holds ``(peer_id, bandwidth, outgoing)`` triples for every
    already-placed peer; peers hosted on ``server_id`` itself are
    skipped (their pipes never leave the server).  The per-link demand
    is accumulated first (two pipes can share a link) and then checked
    against unreserved capacity, exactly like the dict accumulation in
    the scan implementation: per-key float sums happen in the same
    pipe-then-link order, and the threshold test is per-link, so the
    container's iteration order cannot change the verdict.  Path links
    are strictly below the LCA, hence never the root — capacities index
    without the root special case.
    """
    needed: dict = {}
    paths: dict = {}
    for peer_id, bandwidth, outgoing in peers:
        if peer_id == server_id:
            continue
        links = paths.get((peer_id, outgoing))
        if links is None:
            links = paths[peer_id, outgoing] = _pipe_path(
                parent, depth, server_id, peer_id, outgoing
            )
        for link in links:
            needed[link] = needed.get(link, 0.0) + bandwidth
    for (node_id, is_up), amount in needed.items():
        available = (
            cap_up[node_id] - used_up[node_id]
            if is_up
            else cap_down[node_id] - used_down[node_id]
        )
        if amount > available:
            return False
    return True


def commit_pipes(
    parent: list,
    depth: list,
    used_up: list,
    used_down: list,
    cap_up: list,
    cap_down: list,
    over: set,
    ops: list,
    reserved: dict,
    server_id: int,
    peers: list,
    eps: float,
) -> int:
    """Reserve every pipe from a VM on ``server_id`` to its placed peers.

    ``peers`` holds ``(peer_id, bandwidth, outgoing)`` triples (zero-
    bandwidth and unplaced peers are the caller's skip; colocated peers
    — ``peer_id == server_id`` — are skipped here).  ``reserved`` maps
    ``node_id -> [up, down]`` aggregates (the allocation's release
    record).  Bandwidths and ledger values are non-negative.

    Each distinct (peer server, direction) path is walked once.  Each
    path link's pipe bandwidths are added left to right, in pipe order,
    onto the ledger's value and onto ``reserved``'s, so the sums are
    bit-identical to one adjust per (pipe, link).  Every touched node is
    then checked once against ``cap + eps`` in both directions: the
    running sums only grow, so the final state is over capacity exactly
    when some per-pipe step would have been, and the verdict is the
    per-pipe one.  On refusal (status ``1``) nothing is written.  On
    success each touched node gets one ``(1, node_id, prev_up,
    prev_down)`` record holding its values before this VM, so a rollback
    restores the same state.
    """
    paths: dict = {}
    # node_id -> [used_down, used_up, reserved_down, reserved_up]: the
    # running sums, indexed by a link's ``is_up`` (+ 2 for reserved).
    sums: dict = {}
    for peer_id, bandwidth, outgoing in peers:
        if peer_id == server_id:
            continue
        links = paths.get((peer_id, outgoing))
        if links is None:
            links = paths[peer_id, outgoing] = []
            for node_id, is_up in _pipe_path(
                parent, depth, server_id, peer_id, outgoing
            ):
                running = sums.get(node_id)
                if running is None:
                    entry = reserved.get(node_id) or (0.0, 0.0)
                    running = sums[node_id] = [
                        used_down[node_id], used_up[node_id], entry[1], entry[0]
                    ]
                links.append((running, is_up))
        for running, is_up in links:
            running[is_up] += bandwidth
            running[is_up + 2] += bandwidth
    for node_id, (down, up, _, _) in sums.items():
        if up > cap_up[node_id] + eps or down > cap_down[node_id] + eps:
            return 1
    for node_id, (down, up, reserved_down, reserved_up) in sums.items():
        ops.append((_OP_BANDWIDTH, node_id, used_up[node_id], used_down[node_id]))
        used_up[node_id] = up if up > 0.0 else 0.0
        used_down[node_id] = down if down > 0.0 else 0.0
        over.discard(node_id)
        entry = reserved.get(node_id)
        if entry is None:
            reserved[node_id] = [reserved_up, reserved_down]
        else:
            entry[0] = reserved_up
            entry[1] = reserved_down
    return 0


def _pipe_path(
    parent: list, depth: list, server_id: int, peer_id: int, outgoing: bool
) -> list:
    """The path links of one pipe between ``server_id`` and a peer."""
    if outgoing:
        return path_link_ids(parent, depth, server_id, peer_id)
    return path_link_ids(parent, depth, peer_id, server_id)


# ----------------------------------------------------------------------
# kernel 3: flattened-edge requirement evaluation (Eq. 1 / VOC)
# ----------------------------------------------------------------------


def eq1_requirement(edges: tuple, inside: dict) -> tuple:
    """Eq. 1 over a flattened edge table (see ``placement/state.py``).

    ``edges`` rows are ``(src, dst, send, recv, src_size, dst_size)``
    with ``None`` sizes meaning unsized (external) components.  Term-
    for-term identical to :func:`repro.core.bandwidth.uplink_requirement`:
    same edge order, same ``inf * 0 == 0`` convention, same accumulation
    order.
    """
    out = 0.0
    into = 0.0
    get = inside.get
    for src, dst, send, recv, src_size, dst_size in edges:
        src_in = get(src, 0)
        dst_in = get(dst, 0)
        src_out = _INF if src_size is None else src_size - src_in
        dst_out = _INF if dst_size is None else dst_size - dst_in
        if src_in > 0 and dst_out > 0:
            lhs = 0.0 if send == 0.0 or src_in == 0.0 else src_in * send
            rhs = 0.0 if recv == 0.0 or dst_out == 0.0 else dst_out * recv
            out += lhs if lhs < rhs else rhs
        if src_out > 0 and dst_in > 0:
            lhs = 0.0 if send == 0.0 or src_out == 0.0 else src_out * send
            rhs = 0.0 if recv == 0.0 or dst_in == 0.0 else dst_in * recv
            into += lhs if lhs < rhs else rhs
    return out, into


def voc_requirement(trunk: tuple, loops: dict, inside: dict) -> tuple:
    """The footnote-7 VOC requirement over a flattened edge table.

    ``trunk`` rows match :func:`eq1_requirement`; ``loops`` maps a tier
    name to its ``(send, size)`` self-loop.  The hose term iterates
    ``inside`` in its own (insertion) order, exactly like the compiled
    closure it replaces.
    """
    send_inside = recv_outside = 0.0
    send_outside = recv_inside = 0.0
    get = inside.get
    for src, dst, send, recv, src_size, dst_size in trunk:
        src_in = get(src, 0)
        dst_in = get(dst, 0)
        src_out = _INF if src_size is None else src_size - src_in
        dst_out = _INF if dst_size is None else dst_size - dst_in
        send_inside += src_in * send
        send_outside += 0.0 if send == 0 else src_out * send
        recv_inside += dst_in * recv
        recv_outside += 0.0 if recv == 0 else dst_out * recv
    hose = 0.0
    for name, count in inside.items():
        loop = loops.get(name)
        if loop is not None:
            send, size = loop
            hose += min(count, size - count) * send
    return (
        min(send_inside, recv_outside) + hose,
        min(send_outside, recv_inside) + hose,
    )
