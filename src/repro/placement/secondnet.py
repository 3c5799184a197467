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

from repro import _kernels
from repro.core.constants import EPSILON as _EPSILON
from repro.core.tag import Tag
from repro.models.pipe import PipeSet, pipe_expansion, pipes_from_tag
from repro.obs import core as _obs
from repro.placement.base import Placement, PlacementResult, Rejection
from repro.topology.ledger import Journal, Ledger
from repro.topology.tree import Node

__all__ = ["SecondNetPlacer", "PipeAllocation"]


class PipeAllocation:
    """Reservation record of one placed pipe-model tenant."""

    def __init__(
        self, tag: Tag, pipes: PipeSet | None, ledger: Ledger
    ) -> None:
        self.tag = tag
        # Deferred: the placer works from the flattened edge expansion
        # and never touches Pipe objects, so the quadratic ``PipeSet``
        # is only materialized if a consumer actually asks for it.
        self._pipes = pipes
        self.ledger = ledger
        self.journal = Journal()
        self.vm_server: dict[str, Node] = {}
        # Mirror of ``vm_server`` in node-id form, the shape the per-VM
        # peer triples (and through them the path kernels) consume.
        self.vm_server_ids: dict[str, int] = {}
        # Aggregate (up, down) reserved per node uplink, for release().
        self._reserved: dict[int, list[float]] = defaultdict(lambda: [0.0, 0.0])
        self.finalized = False

    @property
    def pipes(self) -> PipeSet:
        if self._pipes is None:
            self._pipes = pipes_from_tag(self.tag)
        return self._pipes

    def record_reservation(self, node: Node, up: float, down: float) -> None:
        self.record_reservation_id(node.node_id, up, down)

    def record_reservation_id(self, node_id: int, up: float, down: float) -> None:
        entry = self._reserved[node_id]
        entry[0] += up
        entry[1] += down

    def release(self) -> None:
        """Release all slots and pipe reservations (tenant departure)."""
        servers: dict[int, int] = defaultdict(int)
        for server in self.vm_server.values():
            servers[server.node_id] += 1
        for server_id, count in servers.items():
            self.ledger.release_slots(self.ledger.topology.node(server_id), count)
        for node_id, (up, down) in self._reserved.items():
            if up or down:
                self.ledger.release_uplink_id(node_id, up, down)
        self.vm_server.clear()
        self.vm_server_ids.clear()
        self._reserved.clear()

    def iter_server_placements(self):
        """Yield ``(server, {tier: count})`` matching TenantAllocation."""
        per_server: dict[int, dict[str, int]] = defaultdict(dict)
        for vm, server in self.vm_server.items():
            tier = vm.rsplit(":", 1)[0]
            counts = per_server[server.node_id]
            counts[tier] = counts.get(tier, 0) + 1
        for server_id, counts in per_server.items():
            yield self.ledger.topology.node(server_id), counts

    def tier_spread(self, tier: str, level: int) -> dict[int, int]:
        """Per-fault-domain VM counts (WCS input), like TenantAllocation."""
        spread: dict[int, int] = defaultdict(int)
        for vm, server in self.vm_server.items():
            if vm.rsplit(":", 1)[0] != tier:
                continue
            node = server
            while node is not None and node.level < level:
                node = node.parent
            if node is not None and node.level == level:
                spread[node.node_id] += 1
        return dict(spread)


class SecondNetPlacer:
    """Greedy pipe-model placement with per-pipe path reservations."""

    def __init__(self, ledger: Ledger, *, use_candidate_index: bool = True) -> None:
        self.ledger = ledger
        self.topology = ledger.topology
        self._flat = ledger.flat
        # Maintained per-rack server candidate order; ``False`` falls
        # back to the per-VM rebuild+sort (the lockstep baseline).
        if use_candidate_index:
            self._index = ledger.ensure_candidate_index()
            self._index.track_racks()
        else:
            self._index = None
        # Rack ids in enumeration order, the base order of the per-VM
        # rack sweep (the rack_order kernel filters and sorts these).
        self._rack_ids = [node.node_id for node in self.topology.level_nodes(1)]

    def place(self, tag: Tag) -> PlacementResult:
        # The flattened O(edges) plan, not the materialized PipeSet: the
        # placer only ever needs the per-VM peer/demand expansion, which
        # the kernel builds straight from the plan rows.
        vms, plans = pipe_expansion(tag)
        if len(vms) > self.ledger.free_slots(self.topology.root):
            return Rejection(tag, "not enough free VM slots in the datacenter")
        allocation = PipeAllocation(tag, None, self.ledger)
        # One pass builds the per-VM peer lists and the per-VM (out, in)
        # demand; the sums accumulate in pipe order, exactly like
        # :func:`repro.models.pipe.pipe_vm_demand`.
        neighbors, demand = _kernels.expand_edges(plans, vms)
        order = sorted(vms, key=lambda vm: sum(demand[vm]), reverse=True)
        # Per-server headroom for the *total* pipe demand of colocated
        # VMs: pipes toward not-yet-placed peers will need uplink
        # capacity later, so stacking demand-blind would dead-end (the
        # real SecondNet folds this into its bipartite matching).
        headroom: dict[int, list[float]] = {}
        vm_ids = allocation.vm_server_ids
        for vm in order:
            # Placed peers as (peer_server_id, bandwidth, outgoing)
            # triples — the id form every downstream consumer (rack
            # costs, hosted-peer classes, the path kernels) needs —
            # built once per VM and shared by the search and the commit.
            placed, hosted = _kernels.placed_peers(neighbors[vm], vm_ids)
            server = self._best_server(placed, hosted, demand[vm], headroom)
            if server is None or not self._commit(
                allocation, vm, server, placed
            ):
                self.ledger.rollback(allocation.journal, 0)
                return Rejection(tag, f"no feasible server for VM {vm!r}")
            out, into = demand[vm]
            entry = headroom.setdefault(
                server.node_id, [server.nominal_up, server.nominal_down]
            )
            entry[0] -= out
            entry[1] -= into
        allocation.finalized = True
        return Placement(allocation)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def _best_server(
        self,
        placed_peers: list[tuple[int, float, bool]],
        hosted: dict[int, list[int]],
        vm_demand: tuple[float, float],
        headroom: dict[int, list[float]],
    ) -> Node | None:
        """Pick a server minimizing the pipe bandwidth-hop footprint.

        Racks are scored first (cost of reaching all placed peers), then
        the fullest feasible server inside the best rack is chosen, which
        keeps the search far below the full O(servers x peers) sweep.
        ``hosted`` maps servers hosting a placed peer to that peer's
        indices: such servers skip those pipes in the feasibility check,
        so they are never equivalent to servers that don't.
        """
        ledger = self.ledger
        if self._index is not None:
            return self._best_server_indexed(placed_peers, vm_demand, headroom, hosted)
        racks = sorted(
            (
                rack
                for rack in self.topology.level_nodes(1)
                if self.ledger.free_slots(rack) > 0
            ),
            key=lambda rack: self._rack_cost(rack, placed_peers),
        )
        for rack in racks:
            candidates = [
                s
                for s in self.topology.servers_under(rack)
                if ledger.used_slots(s) < ledger.slot_cap[s.node_id]
            ]
            if not candidates:
                continue
            # Fullest-first packs servers tightly, like SecondNet's
            # cluster-then-server refinement.
            candidates.sort(key=ledger.used_slots, reverse=True)
            found = self._first_feasible(
                candidates, placed_peers, vm_demand, headroom, hosted
            )
            if found is not None:
                return found
        return None

    def _best_server_indexed(
        self,
        placed_peers: list[tuple[int, float, bool]],
        vm_demand: tuple[float, float],
        headroom: dict[int, list[float]],
        hosted: dict[int, list[int]],
    ) -> Node | None:
        """:meth:`_best_server` over the maintained candidate index.

        Two changes, both bit-identical to the scan: the per-rack server
        order comes pre-maintained from the index instead of a per-VM
        rebuild+sort, and the whole rack sweep — the free-slot filter,
        per-class costs (racks in the same pod hosting no placed peer
        accumulate the exact same per-peer float sum, racks hosting a
        peer are their own class), and the stable sort by cost — is one
        :func:`_kernels.rack_order` call over the precomputed rack id
        list.
        """
        ledger = self.ledger
        flat = self._flat
        node_of = flat.node_of
        index = self._index
        order = _kernels.rack_order(
            flat.parent, ledger._free_subtree, self._rack_ids, placed_peers
        )
        for rack_id in order:
            entries = index.rack_candidates(rack_id)
            if not entries:
                continue
            found = self._first_feasible(
                (node_of[server_id] for _, _, server_id in entries),
                placed_peers,
                vm_demand,
                headroom,
                hosted,
            )
            if found is not None:
                return found
        return None

    def _first_feasible(
        self,
        candidates,
        placed_peers: list[tuple[int, float, bool]],
        vm_demand: tuple[float, float],
        headroom: dict[int, list[float]],
        hosted: dict[int, list[int]],
    ) -> Node | None:
        """First feasible server of one rack's candidate order.

        Within one rack, two servers with equal uplink availability and
        the same hosted-peer set share every pipe path except their own
        uplink, so infeasibility transfers between them: test one member
        per class, fail the whole class.
        """
        ledger = self.ledger
        infeasible: set = set()
        for server in candidates:
            server_id = server.node_id
            left = headroom.get(
                server_id, [server.nominal_up, server.nominal_down]
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
            if self._feasible(server, placed_peers):
                return server
            infeasible.add(key)
        return None

    def _rack_cost(
        self, rack: Node, placed_peers: list[tuple[int, float, bool]]
    ) -> float:
        # Inlined hop computation over the flat parent array: this runs
        # once per (rack, peer) pair for every VM placed.
        parent = self._flat.parent
        rack_id = rack.node_id
        pod_id = parent[rack_id]
        cost = 0.0
        for peer_id, bandwidth, _ in placed_peers:
            peer_rack = parent[peer_id]
            if peer_rack == rack_id:
                cost += bandwidth * 2
            elif parent[peer_rack] == pod_id:
                cost += bandwidth * 4
            else:
                cost += bandwidth * 6
        return cost

    def _hops(self, rack: Node, server: Node) -> int:
        """Path length (in links) between a rack and a peer's server."""
        parent = self._flat.parent
        peer_rack = parent[server.node_id]
        assert peer_rack >= 0
        if peer_rack == rack.node_id:
            return 2
        if parent[peer_rack] == parent[rack.node_id]:
            return 4
        return 6

    def _path_link_ids(self, src_id: int, dst_id: int) -> list[tuple[int, bool]]:
        """Uplink ids crossed from server ``src_id`` to server ``dst_id``.

        ``(node_id, is_up)`` pairs: the up direction on the source side
        of the LCA, the down direction on the destination side
        (destination side first, matching the reservation order the
        pointer-walk implementation used).  The walk (including the
        LCA) runs in the active :mod:`repro._kernels` backend.
        """
        flat = self._flat
        return _kernels.path_link_ids(flat.parent, flat.depth, src_id, dst_id)

    def _path_links(self, src: Node, dst: Node) -> list[tuple[Node, bool]]:
        """Node-level :meth:`_path_link_ids` (kept for introspection)."""
        node_of = self._flat.node_of
        return [
            (node_of[node_id], is_up)  # type: ignore[misc]
            for node_id, is_up in self._path_link_ids(src.node_id, dst.node_id)
        ]

    def _feasible(
        self, server: Node, placed_peers: list[tuple[int, float, bool]]
    ) -> bool:
        """One fused path-demand accumulation + capacity check.

        Path links sit strictly below the LCA, so they are never the
        root and the kernel indexes the ledger's raw used/capacity
        arrays directly (the root's ``inf`` special case cannot arise).
        """
        flat = self._flat
        ledger = self.ledger
        return _kernels.pipes_feasible(
            flat.parent,
            flat.depth,
            ledger._used_up,
            ledger._used_down,
            flat.cap_up,
            flat.cap_down,
            server.node_id,
            placed_peers,
        )

    def _commit(
        self,
        allocation: PipeAllocation,
        vm: str,
        server: Node,
        placed_peers: list[tuple[int, float, bool]],
    ) -> bool:
        if not self.ledger.reserve_slots(server, 1, allocation.journal):
            return False
        ledger = self.ledger
        journal = allocation.journal
        flat = self._flat
        placed = [t for t in placed_peers if t[1] != 0.0]
        # The whole per-VM pipe loop — path walk, per-link journalled
        # adjust, reservation aggregation — is one kernel call; a mid-
        # commit refusal leaves the partial journal for the caller's
        # wholesale rollback, exactly like the unfused loop did.
        before = len(journal.ops)
        status = _kernels.commit_pipes(
            flat.parent,
            flat.depth,
            ledger._used_up,
            ledger._used_down,
            flat.cap_up,
            flat.cap_down,
            ledger._over,
            journal.ops,
            allocation._reserved,
            server.node_id,
            placed,
            _EPSILON,
        )
        c = _obs.counters
        if c is not None and len(journal.ops) > before:
            c.bump("ledger.journal_ops", len(journal.ops) - before)
        if status != 0:
            return False
        allocation.vm_server[vm] = server
        allocation.vm_server_ids[vm] = server.node_id
        return True
