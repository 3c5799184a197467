"""A SecondNet-style pipe-model placer (paper §5 baseline).

SecondNet [Guo et al., CoNEXT 2010] allocates VM-to-VM pipe guarantees by
placing VMs one at a time and reserving each pipe's bandwidth along the
(unique, on a tree) physical path.  The paper uses it to show that pipe
placement is fundamentally slower and, despite the pipe model's idealized
efficiency, ends up *less* efficient than CM+TAG in practice.

Faithful points: per-pipe path reservations, greedy VM-by-VM placement
minimizing the bandwidth-hop footprint toward already-placed peers, strict
capacity enforcement.  Concession to laptop-scale runtime: candidate
servers are scored at rack granularity first (the full SecondNet is
O(N^3); the paper reports tens of minutes per large tenant, which we
reproduce in spirit, not in wall-clock).
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.constants import EPSILON as _EPSILON
from repro.core.tag import Tag
from repro.models.pipe import pipe_expansion
from repro.obs import core as _obs
from repro.placement.base import Placement, PlacementResult, Rejection
from repro.topology.ledger import OP_BANDWIDTH, Journal, Ledger

__all__ = ["SecondNetPlacer", "PipeAllocation"]


class PipeAllocation:
    """Reservation record of one placed pipe-model tenant.

    ``journal`` is the undo log of the placement search only: a failed
    VM rolls it back whole, and :meth:`SecondNetPlacer.place` empties it
    when the tenant commits.  ``release`` reads ``vm_server`` and the
    per-uplink totals, never the log.
    """

    def __init__(self, tag: Tag, ledger: Ledger) -> None:
        self.tag = tag
        self.ledger = ledger
        self.journal = Journal()
        # VM name -> id of the server hosting it.
        self.vm_server: dict[str, int] = {}
        # Aggregate [up, down] reserved per node uplink, for release();
        # written by SecondNetPlacer._commit.
        self._reserved: dict[int, list[float]] = {}
        self.finalized = False

    def release(self) -> None:
        """Release all slots and pipe reservations (tenant departure)."""
        servers: dict[int, int] = defaultdict(int)
        for server_id in self.vm_server.values():
            servers[server_id] += 1
        for server_id, count in servers.items():
            self.ledger.release_slots(server_id, count)
        for node_id, (up, down) in self._reserved.items():
            if up or down:
                self.ledger.release_uplink_id(node_id, up, down)
        self.vm_server.clear()
        self._reserved.clear()

    def iter_server_placements(self):
        """Yield ``(server_id, {tier: count})`` matching TenantAllocation."""
        per_server: dict[int, dict[str, int]] = defaultdict(dict)
        for vm, server_id in self.vm_server.items():
            tier = vm.rsplit(":", 1)[0]
            counts = per_server[server_id]
            counts[tier] = counts.get(tier, 0) + 1
        yield from per_server.items()

    def tier_spread(self, tier: str, level: int) -> dict[int, int]:
        """Per-fault-domain VM counts (WCS input), like TenantAllocation."""
        flat = self.ledger.flat
        parent = flat.parent
        node_level = flat.level
        spread: dict[int, int] = defaultdict(int)
        for vm, node_id in self.vm_server.items():
            if vm.rsplit(":", 1)[0] != tier:
                continue
            while node_id != -1 and node_level[node_id] < level:
                node_id = parent[node_id]
            if node_id != -1 and node_level[node_id] == level:
                spread[node_id] += 1
        return dict(spread)


def _pipe_plan(tag: Tag) -> tuple[dict, dict, list[str]]:
    """``(neighbors, demand, order)``: the per-VM pipe expansion of ``tag``.

    ``pipe_expansion``'s ``(src_tier, dst_tier, per_pair, self_loop)``
    rows describe the quadratic per-pair expansion; this performs it
    without materializing ``Pipe`` objects.  ``neighbors[vm]`` lists
    ``(peer, bandwidth, outgoing)`` triples in pipe order — row by row,
    source-major, self-loops skipping the diagonal — and ``demand[vm]``
    is ``[out, in]``: the bandwidth of the VM's outgoing pipes and of its
    incoming pipes, each summed in that order.  Every VM gets an entry,
    including pipe-less ones.  ``order`` places VMs by descending total
    demand.  Memoized on the tag (``Tag.derived``).
    """
    vms, plans = pipe_expansion(tag)
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
    order = sorted(vms, key=lambda vm: demand[vm][0] + demand[vm][1], reverse=True)
    return neighbors, demand, order


class SecondNetPlacer:
    """Greedy pipe-model placement with per-VM path reservations."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self._flat = ledger.flat
        # Maintained per-rack server candidate order.
        self._index = ledger.ensure_candidate_index()
        self._index.track_racks()
        # Rack ids in enumeration order, the base order of the per-VM
        # rack sweep (_rack_order filters and sorts these).
        self._rack_ids = list(self._flat.level_ids[1])

    def place(self, tag: Tag) -> PlacementResult:
        if tag.size > self.ledger.free_slots_id(self._flat.root_id):
            return Rejection(tag, "not enough free VM slots in the datacenter")
        neighbors, demand, order = tag.derived(_pipe_plan)
        allocation = PipeAllocation(tag, self.ledger)
        # Per-server headroom for the *total* pipe demand of colocated
        # VMs: pipes toward not-yet-placed peers will need uplink
        # capacity later, so stacking demand-blind would dead-end (the
        # real SecondNet folds this into its bipartite matching).
        headroom: dict[int, list[float]] = {}
        get_id = allocation.vm_server.get
        for vm in order:
            # Placed peers as (peer_server_id, bandwidth, outgoing)
            # triples — the id form every downstream consumer (rack
            # costs, hosted-peer classes, the path walks) needs — built
            # once per VM and shared by the search and the commit.
            # ``hosted`` maps a server id to the ``placed`` indices it
            # hosts (the equivalence-class key of _first_feasible).
            placed: list[tuple[int, float, bool]] = []
            hosted: dict[int, list[int]] = {}
            for name, bandwidth, outgoing in neighbors[vm]:
                server_id = get_id(name)
                if server_id is None:
                    continue
                indices = hosted.get(server_id)
                if indices is None:
                    indices = hosted[server_id] = []
                indices.append(len(placed))
                placed.append((server_id, bandwidth, outgoing))
            server_id = self._best_server(placed, hosted, demand[vm], headroom)
            if server_id is None or not self._commit(
                allocation, vm, server_id, placed
            ):
                self.ledger.rollback(allocation.journal, 0)
                return Rejection(tag, f"no feasible server for VM {vm!r}")
            out, into = demand[vm]
            entry = headroom.setdefault(
                server_id,
                [self._flat.nominal_up[server_id], self._flat.nominal_down[server_id]],
            )
            entry[0] -= out
            entry[1] -= into
        allocation.finalized = True
        allocation.journal.ops.clear()  # committed: nothing is left to undo
        return Placement(allocation)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def _best_server(
        self,
        placed_peers: list[tuple[int, float, bool]],
        hosted: dict[int, list[int]],
        vm_demand: tuple[float, float],
        headroom: dict[int, list[float]],
    ) -> int | None:
        """Id of a server minimizing the pipe bandwidth-hop footprint.

        Racks are scored first (cost of reaching all placed peers), then
        the fullest feasible server inside the best rack is chosen, which
        keeps the search far below the full O(servers x peers) sweep.
        The rack sweep — the free-slot filter, per-class costs (racks in
        the same pod hosting no placed peer accumulate the exact same
        per-peer float sum, racks hosting a peer are their own class),
        and the stable sort by cost — is :meth:`_rack_order` over the
        precomputed rack id list; each rack's fullest-first server order
        comes pre-maintained from the candidate index.
        ``hosted`` maps servers hosting a placed peer to that peer's
        indices: such servers skip those pipes in the feasibility check,
        so they are never equivalent to servers that don't.
        """
        index = self._index
        for rack_id in self._rack_order(placed_peers):
            entries = index.rack_candidates(rack_id)
            if not entries:
                continue
            found = self._first_feasible(
                (server_id for _, _, server_id in entries),
                placed_peers,
                vm_demand,
                headroom,
                hosted,
            )
            if found is not None:
                return found
        return None

    def _rack_order(self, peers: list[tuple[int, float, bool]]) -> list[int]:
        """Racks with free slots, in ascending pipe-cost order (stable).

        Of the rack ids whose subtree still has free VM slots, order by
        the bandwidth-hop cost toward the placed ``(peer_id, bandwidth,
        outgoing)`` triples — ``bandwidth * 2`` for a peer in the rack,
        ``* 4`` in the same pod, ``* 6`` across pods, accumulated in peer
        order.  Racks in the same pod hosting no placed peer take the
        same branch for every term, so they share one computed cost;
        ties keep input order, i.e. exactly a stable sort of the
        surviving ids by cost.  With no peers every cost is zero and the
        filtered ids come back unreordered.
        """
        parent = self._flat.parent
        free_subtree = self.ledger._free_subtree
        feasible = [rack_id for rack_id in self._rack_ids if free_subtree[rack_id] > 0]
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

    def _first_feasible(
        self,
        candidates,
        placed_peers: list[tuple[int, float, bool]],
        vm_demand: tuple[float, float],
        headroom: dict[int, list[float]],
        hosted: dict[int, list[int]],
    ) -> int | None:
        """First feasible server id of one rack's candidate order.

        Within one rack, two servers with equal uplink availability and
        the same hosted-peer set share every pipe path except their own
        uplink, so infeasibility transfers between them: test one member
        per class, fail the whole class.
        """
        ledger = self.ledger
        nominal_up = self._flat.nominal_up
        nominal_down = self._flat.nominal_down
        infeasible: set = set()
        for server_id in candidates:
            left = headroom.get(
                server_id, [nominal_up[server_id], nominal_down[server_id]]
            )
            if vm_demand[0] > left[0] or vm_demand[1] > left[1]:
                continue
            key = (
                ledger.available_up_id(server_id),
                ledger.available_down_id(server_id),
                tuple(hosted.get(server_id, ())),
            )
            if key in infeasible:
                continue
            if self._feasible(server_id, placed_peers):
                return server_id
            infeasible.add(key)
        return None

    def _path_link_ids(self, src_id: int, dst_id: int) -> list[tuple[int, bool]]:
        """Uplink ids crossed from server ``src_id`` to server ``dst_id``.

        ``(node_id, is_up)`` pairs: the up direction on the source side
        of the LCA, the down direction on the destination side
        (destination side first, matching the reservation order the
        pointer-walk implementation used).
        """
        parent = self._flat.parent
        depth = self._flat.depth
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

    def _pipe_path(
        self, server_id: int, peer_id: int, outgoing: bool
    ) -> list[tuple[int, bool]]:
        """The path links of one pipe between ``server_id`` and a peer."""
        if outgoing:
            return self._path_link_ids(server_id, peer_id)
        return self._path_link_ids(peer_id, server_id)

    def _feasible(
        self, server_id: int, placed_peers: list[tuple[int, float, bool]]
    ) -> bool:
        """Can ``server_id`` host a VM whose placed peers are ``placed_peers``?

        Peers hosted on that server itself are skipped (their pipes never
        leave the server).  The per-link demand is accumulated first (two
        pipes can share a link), in pipe-then-link order, and then
        checked per link against unreserved capacity, so the container's
        iteration order cannot change the verdict.  Path links sit
        strictly below the LCA, so they are never the root and the
        ledger's raw used/capacity arrays index directly (the root's
        ``inf`` special case cannot arise).
        """
        needed: dict = {}
        paths: dict = {}
        for peer_id, bandwidth, outgoing in placed_peers:
            if peer_id == server_id:
                continue
            links = paths.get((peer_id, outgoing))
            if links is None:
                links = paths[peer_id, outgoing] = self._pipe_path(
                    server_id, peer_id, outgoing
                )
            for link in links:
                needed[link] = needed.get(link, 0.0) + bandwidth
        flat = self._flat
        cap_up = flat.cap_up
        cap_down = flat.cap_down
        used_up = self.ledger._used_up
        used_down = self.ledger._used_down
        for (node_id, is_up), amount in needed.items():
            available = (
                cap_up[node_id] - used_up[node_id]
                if is_up
                else cap_down[node_id] - used_down[node_id]
            )
            if amount > available:
                return False
        return True

    def _commit(
        self,
        allocation: PipeAllocation,
        vm: str,
        server_id: int,
        placed_peers: list[tuple[int, float, bool]],
    ) -> bool:
        """Reserve the slot and every pipe from ``vm`` on server
        ``server_id`` to its placed peers.

        Zero-bandwidth pipes are skipped, and so are colocated peers.
        Each distinct (peer server, direction) path is walked once.  Each
        path link's pipe bandwidths are added left to right, in pipe
        order, onto the ledger's value and onto ``allocation._reserved``'s,
        so the sums are bit-identical to one adjust per (pipe, link).
        Every touched node is then checked once against ``cap + eps`` in
        both directions: the running sums only grow, so the final state
        is over capacity exactly when some per-pipe step would have been.
        A refusal writes no bandwidth (the caller's wholesale rollback
        undoes the slot).  On success each touched node gets one
        ``(OP_BANDWIDTH, node_id, prev_up, prev_down)`` record holding its
        values before this VM, so a rollback restores the same state.
        """
        ledger = self.ledger
        if not ledger.reserve_slots(server_id, 1, allocation.journal):
            return False
        used_up = ledger._used_up
        used_down = ledger._used_down
        reserved = allocation._reserved
        paths: dict = {}
        # node_id -> [used_down, used_up, reserved_down, reserved_up]: the
        # running sums, indexed by a link's ``is_up`` (+ 2 for reserved).
        sums: dict = {}
        for peer_id, bandwidth, outgoing in placed_peers:
            if peer_id == server_id or bandwidth == 0.0:
                continue
            links = paths.get((peer_id, outgoing))
            if links is None:
                links = paths[peer_id, outgoing] = []
                for node_id, is_up in self._pipe_path(server_id, peer_id, outgoing):
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
        flat = self._flat
        cap_up = flat.cap_up
        cap_down = flat.cap_down
        for node_id, (down, up, _, _) in sums.items():
            if up > cap_up[node_id] + _EPSILON or down > cap_down[node_id] + _EPSILON:
                return False
        ops = allocation.journal.ops
        over = ledger._over
        for node_id, (down, up, reserved_down, reserved_up) in sums.items():
            ops.append((OP_BANDWIDTH, node_id, used_up[node_id], used_down[node_id]))
            used_up[node_id] = up if up > 0.0 else 0.0
            used_down[node_id] = down if down > 0.0 else 0.0
            over.discard(node_id)
            entry = reserved.get(node_id)
            if entry is None:
                reserved[node_id] = [reserved_up, reserved_down]
            else:
                entry[0] = reserved_up
                entry[1] = reserved_down
        c = _obs.counters
        if c is not None and sums:
            c.bump("ledger.journal_ops", len(sums))
        allocation.vm_server[vm] = server_id
        return True
