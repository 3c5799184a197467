"""The improved Oktopus placer for VC / VOC models (paper §5 baseline).

Oktopus [Ballani et al., SIGCOMM 2011] places Virtual Clusters by greedily
packing VMs into the lowest subtree whose links can carry the hose
crossing ``min(m, N - m) * B``.  The paper's authors "substantially
improved" it before using it as a baseline, and this implementation adopts
the same three improvements (§5):

* handle the case when an allocation fails part-way (rollback and
  escalate, instead of failing the tenant outright),
* place the clusters of one VOC under a common subtree to localize
  inter-cluster traffic,
* generalize VOC to arbitrary per-cluster sizes, hose and core bandwidth.

Bandwidth is reserved with the footnote-7 VOC requirement — the
abstraction under test pays for its own aggregation — using the same
exact-recompute machinery as CloudMirror, so the comparison isolates the
model + placement strategy rather than bookkeeping details.
"""

from __future__ import annotations

import math

from repro.core.tag import Tag
from repro.models.voc import VocCluster, VocModel, voc_from_tag, voc_uplink_requirement
from repro.placement.base import Placement, PlacementResult, Rejection
from repro.placement.ha import HaPolicy, tier_cap_left
from repro.placement.state import TenantAllocation
from repro.topology.ledger import Ledger

__all__ = ["OktopusPlacer"]


class OktopusPlacer:
    """Places tenants by converting their TAG to a generalized VOC."""

    def __init__(self, ledger: Ledger, *, ha: HaPolicy | None = None) -> None:
        self.ledger = ledger
        self._flat = ledger.flat
        self.ha = ha or HaPolicy()
        # Incrementally-maintained subtree candidate order.
        self._index = ledger.ensure_candidate_index()

    def place(self, tag: Tag) -> PlacementResult:
        root_id = self._flat.root_id
        if tag.size > self.ledger.free_slots_id(root_id):
            return Rejection(tag, "not enough free VM slots in the datacenter")
        voc = voc_from_tag(tag)
        allocation = TenantAllocation(tag, self.ledger, voc_uplink_requirement)
        subtree_id = self._find_lowest_subtree(tag)
        while subtree_id is not None:
            savepoint = allocation.savepoint()
            if self._alloc_tenant(allocation, voc, subtree_id):
                if not self.ledger.has_overcommit() and allocation.finalize(
                    subtree_id
                ):
                    return Placement(allocation)
            allocation.rollback(savepoint)
            if subtree_id == root_id:
                break
            subtree_id = self._find_lowest_subtree(
                tag, self._flat.level[subtree_id] + 1
            )
        return Rejection(tag, "no subtree could satisfy the VOC request")

    # ------------------------------------------------------------------
    def _find_lowest_subtree(self, tag: Tag, min_level: int = 0) -> int | None:
        """Id of the lowest-level best-fit subtree with enough aggregate
        free slots."""
        size = tag.size
        best_fit = self._index.best_fit
        for level in range(min_level, self._flat.num_levels):
            node_id = best_fit(level, size)
            if node_id is not None:
                return node_id
        return None

    def _alloc_tenant(
        self, allocation: TenantAllocation, voc: VocModel, subtree_id: int
    ) -> bool:
        """Place every cluster under ``subtree_id``, biggest demand first."""
        clusters = sorted(
            voc.clusters,
            key=lambda c: (c.size * self._cluster_bw(c), c.size),
            reverse=True,
        )
        for cluster in clusters:
            placed = self._alloc_cluster(
                allocation, cluster, cluster.size, subtree_id, subtree_id
            )
            if placed < cluster.size:
                return False
            if self.ledger.has_overcommit():
                return False
        return True

    @staticmethod
    def _cluster_bw(cluster: VocCluster) -> float:
        """Per-VM hose bandwidth the VC placement reasons about.

        A VM's hose must carry its intra-cluster and inter-cluster traffic
        (Fig. 2(b): the hose aggregates all destinations).
        """
        return cluster.hose_bw + max(cluster.core_out, cluster.core_in)

    def _alloc_cluster(
        self,
        allocation: TenantAllocation,
        cluster: VocCluster,
        want: int,
        node_id: int,
        ceiling_id: int,
    ) -> int:
        """Greedy Oktopus allocation of ``want`` VMs of one cluster.

        Prefers a single child that can host the whole remainder (best-fit
        to keep large holes intact), otherwise fills children in
        decreasing free-slot order under the hose feasibility constraint.
        Returns the number of VMs placed.
        """
        ledger = self.ledger
        if self._flat.is_server[node_id]:
            free = ledger.slot_cap[node_id] - ledger.used_slots_id(node_id)
            cap = tier_cap_left(self.ha, allocation, node_id, cluster.name)
            count = min(want, free, cap)
            if count <= 0:
                return 0
            if not allocation.place(node_id, cluster.name, count, ceiling_id):
                return 0
            return count
        placed = 0
        # Stable sort, so free-slot ties keep child order.
        children = sorted(
            self._flat.children_ids[node_id], key=ledger.free_slots_id, reverse=True
        )
        # The whole-remainder filter dedups children in identical
        # reservation states (same free slots, same cluster count, same
        # availability): the hose-feasibility answer is a function of
        # exactly those, and both the filter and the min() below keep
        # the first member of every class, so skipping later members
        # cannot change the chosen target.
        whole = []
        seen: set = set()
        for child_id in children:
            free = ledger.free_slots_id(child_id)
            if free < want:
                continue
            key = (
                free,
                allocation.count_id(child_id, cluster.name),
                ledger.available_up_id(child_id),
                ledger.available_down_id(child_id),
            )
            if key in seen:
                continue
            seen.add(key)
            if self._hose_feasible(allocation, cluster, child_id, want):
                whole.append(child_id)
        if whole:
            target = min(whole, key=ledger.free_slots_id)
            children = [target] + [c for c in children if c != target]
        # Children are attempted in order with state mutating only when
        # VMs land.  ``_max_feasible`` is a function of the same class
        # key (Eq. 7 ancestors are shared among siblings), so between
        # placements, children equivalent to one that already reported
        # nothing feasible are skipped; any successful placement shrinks
        # the remaining want and invalidates the skip set.
        infeasible: set = set()
        for child_id in children:
            if placed >= want:
                break
            key = (
                ledger.free_slots_id(child_id),
                allocation.count_id(child_id, cluster.name),
                ledger.available_up_id(child_id),
                ledger.available_down_id(child_id),
            )
            if key in infeasible:
                continue
            feasible = self._max_feasible(
                allocation, cluster, child_id, want - placed
            )
            if feasible <= 0:
                infeasible.add(key)
                continue
            got = self._alloc_cluster(
                allocation, cluster, feasible, child_id, ceiling_id
            )
            if got:
                placed += got
                infeasible.clear()
        return placed

    def _hose_feasible(
        self,
        allocation: TenantAllocation,
        cluster: VocCluster,
        child_id: int,
        extra: int,
    ) -> bool:
        bandwidth = self._cluster_bw(cluster)
        if bandwidth == 0.0:
            return True
        here = allocation.count_id(child_id, cluster.name) + extra
        crossing = min(here, cluster.size - here) * bandwidth
        ledger = self.ledger
        available = min(
            max(0.0, ledger.available_up_id(child_id)),
            max(0.0, ledger.available_down_id(child_id)),
        )
        return crossing <= available

    def _max_feasible(
        self,
        allocation: TenantAllocation,
        cluster: VocCluster,
        child_id: int,
        want: int,
    ) -> int:
        """Largest VM count placeable under ``child_id`` per the VC constraint.

        The hose crossing ``min(m, N - m) * B`` first rises with ``m`` then
        falls; Oktopus accepts either the low ascending range or, when the
        remainder fits entirely, the descending range.
        """
        free = self.ledger.free_slots_id(child_id)
        cap = tier_cap_left(self.ha, allocation, child_id, cluster.name)
        count = min(want, free, cap)
        if count <= 0:
            return 0
        if self._hose_feasible(allocation, cluster, child_id, count):
            return count
        bandwidth = self._cluster_bw(cluster)
        here = allocation.count_id(child_id, cluster.name)
        available = min(
            max(0.0, self.ledger.available_up_id(child_id)),
            max(0.0, self.ledger.available_down_id(child_id)),
        )
        if bandwidth == 0.0 or math.isinf(available):
            return count
        ascending = int(available / bandwidth) - here
        return max(0, min(count, ascending))
