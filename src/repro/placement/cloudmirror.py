"""The CloudMirror VM placement algorithm (paper §4.4-4.5, Algorithm 1).

Structure follows the paper's pseudocode:

* ``place`` (AllocTenant) — find the lowest subtree the tenant is likely
  to fit under, try to allocate there, escalate one level on failure.
* ``_alloc`` (Alloc) — recursive: at a server, place the request; at a
  switch, run Colocate (when bandwidth saving is feasible and, with
  opportunistic HA, desirable) and then Balance on the remainder.
* ``_colocate`` / ``_coloc_option`` — pick (tier or trunk-connected
  tier pair, child) with the largest verified bandwidth saving, excluding
  low-bandwidth tiers so they can later be packed with high-bandwidth VMs.
* ``_balance`` / ``_greedy_fill`` — greedy multi-dimensional subset-sum
  driving each child's slot and up/down bandwidth utilization toward 100%
  together; in opportunistic-HA mode when saving is undesirable it places
  one VM at a time across children to spread tiers.
* ``_walk`` / ``_scan`` — the child search both share: "try a child, on
  overcommit deallocate and try the next" costs one scan of the children
  per *ledger change*, not per try, and a failing server is asked first,
  without side effects, whether its own uplink would overcommit.

Bandwidth reservations are recomputed exactly (Eq. 1) on every touched
uplink as placement proceeds, and capacity is checked at subtree-completion
boundaries (the paper's per-subtree ``ReserveBW``), so transient
mid-placement spikes of the hose term never reject a tenant whose final
layout fits.
"""

from __future__ import annotations

import math
import weakref
from functools import partial
from operator import itemgetter

from repro.core.bandwidth import trunk_saving, uplink_requirement
from repro.core.tag import Tag
from repro.obs import core as _obs
from repro.placement.base import Placement, PlacementResult, Rejection
from repro.placement.ha import (
    DemandEstimator,
    HaPolicy,
    saving_desirable,
    tier_cap_left,
)
from repro.placement.state import TenantAllocation
from repro.topology.ledger import Ledger
from repro.topology.tree import Node

__all__ = ["CloudMirrorPlacer"]

_UNSEEN = object()
_VALUE = itemgetter(0)


def _mean(values: list[float]) -> float:
    """Left-to-right mean.  Builtin ``sum()`` compensates float addition
    from Python 3.12, which could move a decision between interpreters."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


class _TagPlan:
    """What the search needs of one tag and never recomputes.

    ``external``: the out-of-TAG demand of the whole tenant (the
    root-path check of AllocTenant).
    ``hose``: tier -> self-loop send rate (non-zero loops only).
    ``trunk``: the internal (both endpoints placeable) non-loop edges,
    in ``tag.iter_edges()`` order, as ``(edge, src, dst,
    fill_src_first)`` with the higher-coefficient endpoint flag
    precomputed.
    Per internal tier: ``demand`` (the per-VM ``(out, into)``), ``peak``
    (its max — the low-bandwidth test and the server fill order) and
    ``size`` (also the Eq. 7 headroom when no WCS is guaranteed).
    """

    __slots__ = ("external", "hose", "trunk", "demand", "peak", "size")

    def __init__(self, tag: Tag) -> None:
        self.size = tag.tier_sizes()
        self.external = uplink_requirement(tag, self.size)
        self.hose = {
            edge.src: edge.send
            for edge in tag.iter_edges()
            if edge.is_self_loop and edge.send != 0.0
        }
        self.trunk = tuple(
            (edge, edge.src, edge.dst, edge.send >= edge.recv)
            for edge in tag.iter_edges()
            if not edge.is_self_loop
            and not tag.component(edge.src).external
            and not tag.component(edge.dst).external
        )
        self.demand = {name: tag.per_vm_demand(name) for name in self.size}
        self.peak = {name: max(pair) for name, pair in self.demand.items()}


# The search plan is a pure function of the tag; keyed by identity so pool
# tenants hit after their first placement and ephemeral tags are dropped
# with their last reference.
_PLAN_CACHE: "weakref.WeakKeyDictionary[Tag, _TagPlan]" = weakref.WeakKeyDictionary()


class CloudMirrorPlacer:
    """Places TAG tenants on a tree datacenter (the CM algorithm).

    ``enable_colocate`` / ``enable_balance`` exist for the Fig. 10
    ablation; production use keeps both on.  ``ha`` selects §4.5 behaviour.
    """

    def __init__(
        self,
        ledger: Ledger,
        *,
        enable_colocate: bool = True,
        enable_balance: bool = True,
        subtree_choice: str = "best-fit",
        ha: HaPolicy | None = None,
        use_candidate_index: bool = True,
    ) -> None:
        if subtree_choice not in ("best-fit", "most-free"):
            raise ValueError(
                f"subtree_choice must be 'best-fit' or 'most-free', "
                f"got {subtree_choice!r}"
            )
        self.ledger = ledger
        self.topology = ledger.topology
        self._flat = ledger.flat
        # Incrementally-maintained subtree candidate order; ``False``
        # falls back to the full per-level scan (the lockstep baseline).
        self._index = ledger.ensure_candidate_index() if use_candidate_index else None
        self.enable_colocate = enable_colocate
        self.enable_balance = enable_balance
        self.subtree_choice = subtree_choice
        self.ha = ha or HaPolicy()
        self._wcs = self.ha.guarantees_wcs
        self.estimator = DemandEstimator()
        # Per-subtree low-bandwidth threshold: a pure function of the
        # immutable topology, so memoized for the life of the placer.
        self._threshold_cache: dict[int, tuple[int, float]] = {}
        # Search invariants of the tag being placed (see _TagPlan), set by
        # _candidate_plan wherever a tag enters the search.
        self._plan_for: Tag | None = None
        self._plan: _TagPlan = None  # type: ignore[assignment]
        # True only while an opportunistic-HA placement attempt is active
        # (the fallback attempt after a failed spread runs with it off).
        self._spreading = False
        # Offers of the current search that placed nothing (see _try_child).
        self._failed: set[tuple] = set()

    # ------------------------------------------------------------------
    # AllocTenant
    # ------------------------------------------------------------------
    def place(self, tag: Tag) -> PlacementResult:
        self.estimator.observe(tag)
        if tag.size > self.ledger.free_slots(self.topology.root):
            return Rejection(tag, "not enough free VM slots in the datacenter")
        start_level = self._start_level(tag)
        result = self._place_attempt(tag, start_level, self.ha.opportunistic)
        if isinstance(result, Placement) or not self.ha.opportunistic:
            return result
        # Opportunistic anti-affinity must never cost a placement the plain
        # algorithm would accept: fall back to the default behaviour.
        return self._place_attempt(tag, 0, False)

    def _place_attempt(
        self, tag: Tag, start_level: int, opportunistic: bool
    ) -> PlacementResult:
        self._spreading = opportunistic
        self._failed = set()
        try:
            allocation = TenantAllocation(tag, self.ledger)
            self._candidate_plan(tag)
            subtree = self._find_lowest_subtree(tag, start_level)
            while subtree is not None:
                savepoint = allocation.savepoint()
                want = allocation.remaining_tiers()
                self._alloc(allocation, want, subtree, subtree)
                if (
                    allocation.is_complete
                    and not self.ledger.has_overcommit()
                    and allocation.finalize(subtree)
                ):
                    return Placement(allocation)
                allocation.rollback(savepoint)
                if subtree.is_root:
                    break
                subtree = self._find_lowest_subtree(tag, subtree.level + 1)
            return Rejection(tag, "no subtree could satisfy slots and bandwidth")
        finally:
            self._spreading = False

    # ------------------------------------------------------------------
    # auto-scaling (paper §6 extension)
    # ------------------------------------------------------------------
    def scale_up(self, allocation: TenantAllocation, tier: str, extra: int) -> bool:
        """Grow a placed tenant's ``tier`` by ``extra`` VMs in place.

        The TAG's per-VM guarantees stay fixed (the model's auto-scaling
        property, §3); the tier size grows, every existing reservation is
        re-derived under the new size, and the new VMs are placed with
        the usual Colocate/Balance machinery.  Returns False — with the
        allocation exactly as before — when the datacenter cannot host
        the growth.
        """
        self._failed = set()
        savepoint = allocation.savepoint()
        allocation.begin_scale_up(tier, extra)
        self._candidate_plan(allocation.tag)
        want = {tier: extra}
        root = self.topology.root
        self._alloc(allocation, want, root, root)
        if not want and allocation.finish_scale_up():
            return True
        allocation.rollback(savepoint)
        return False

    def scale_down(
        self, allocation: TenantAllocation, tier: str, remove: int
    ) -> None:
        """Shrink a placed tenant's ``tier`` by ``remove`` VMs in place.

        Always succeeds: shrinking only lowers Eq. 1's min() terms, so no
        reservation can exceed capacity afterwards.
        """
        allocation.scale_down(tier, remove)

    def _start_level(self, tag: Tag) -> int:
        """Lowest level to search (0, or the lowest *desirable* level §4.5)."""
        if not self.ha.opportunistic:
            return 0
        expected = self.estimator.expected_per_vm_demand
        for level in range(self.topology.num_levels):
            ratios = []
            for node in self.topology.level_nodes(level):
                free = self.ledger.free_slots(node)
                if free <= 0 or node.is_root:
                    continue
                available = min(
                    self.ledger.nominal_available_up_id(node.node_id),
                    self.ledger.nominal_available_down_id(node.node_id),
                )
                ratios.append(max(0.0, available) / free)
            if not ratios:
                continue
            # Saving is desirable at this level when the bandwidth
            # typically available per free slot is scarcer than demand.
            if _mean(ratios) < expected:
                return level
        return self.topology.root.level

    def _find_lowest_subtree(self, tag: Tag, min_level: int) -> Node | None:
        """Lowest-level subtree likely to fit ``tag``.

        Validates aggregate free slots and, when the TAG talks to external
        components, the root-path bandwidth for that external demand.
        Among valid candidates, ``best-fit`` (default) picks the fewest
        sufficient free slots — preserving large holes for large tenants —
        while ``most-free`` load-balances (the ablation benchmark
        quantifies the difference).
        """
        external_demand = self._candidate_plan(tag).external
        best_fit = self.subtree_choice == "best-fit"
        size = tag.size
        index = self._index
        if index is not None:
            if external_demand.out == 0.0 and external_demand.into == 0.0:
                accept = None
            else:
                available = self._root_path_available_id

                def accept(node_id: int) -> bool:
                    return available(node_id, external_demand)

            pick = index.best_fit if best_fit else index.most_free
            for level in range(min_level, self.topology.num_levels):
                node_id = pick(level, size, accept)
                if node_id is not None:
                    return self._flat.node_of[node_id]
            return None
        free_slots_id = self.ledger.free_slots_id
        for level in range(min_level, self.topology.num_levels):
            best: Node | None = None
            best_free = 0
            for node in self.topology.level_nodes(level):
                free = free_slots_id(node.node_id)
                if free < size:
                    continue
                if not self._root_path_available(node, external_demand):
                    continue
                if (
                    best is None
                    or (best_fit and free < best_free)
                    or (not best_fit and free > best_free)
                ):
                    best = node
                    best_free = free
            if best is not None:
                return best
        return None

    def _candidate_plan(self, tag: Tag) -> _TagPlan:
        """Make ``tag``'s plan current (pool tenants are planned once)."""
        if self._plan_for is not tag:
            plan = _PLAN_CACHE.get(tag)
            if plan is None:
                plan = _PLAN_CACHE[tag] = _TagPlan(tag)
            self._plan = plan
            self._plan_for = tag
        return self._plan

    def _root_path_available(self, node: Node, demand) -> bool:
        if demand.out == 0.0 and demand.into == 0.0:
            return True
        return self._root_path_available_id(node.node_id, demand)

    def _root_path_available_id(self, node_id: int, demand) -> bool:
        ledger = self.ledger
        for hop_id in self._flat.path_up[node_id]:
            if (
                ledger.available_up_id(hop_id) < demand.out
                or ledger.available_down_id(hop_id) < demand.into
            ):
                return False
        return True

    # ------------------------------------------------------------------
    # Alloc
    # ------------------------------------------------------------------
    def _alloc(
        self,
        allocation: TenantAllocation,
        want: dict[str, int],
        subtree: Node,
        ceiling: Node,
    ) -> bool:
        """Place as much of ``want`` as possible under ``subtree``.

        Mutates ``want`` down to the unplaced remainder; True iff empty.
        """
        if subtree.is_server:
            self._alloc_server(allocation, want, subtree, ceiling)
            return not want
        if self.enable_colocate and self._bw_saving_worthwhile(subtree):
            self._colocate(allocation, want, subtree, ceiling)
        if want:
            if self.enable_balance:
                self._balance(allocation, want, subtree, ceiling)
            else:
                # Fig. 10 "Coloc"-only ablation: place the remainder the
                # way prior network-aware placers do — pack children in
                # free-slot order with no resource balancing (Fig. 6(c)).
                self._walk(allocation, want, subtree, ceiling, self._naive_option)
        return not want

    def _alloc_server(
        self,
        allocation: TenantAllocation,
        want: dict[str, int],
        server: Node,
        ceiling: Node,
    ) -> None:
        """Place VMs straight onto one server, respecting slots and Eq. 7."""
        for tier, count in self._server_fill(allocation, want, server):
            if allocation.place(server, tier, count, ceiling):
                want[tier] -= count
                if want[tier] == 0:
                    del want[tier]

    def _server_fill(
        self, allocation: TenantAllocation, want: dict[str, int], server: Node
    ) -> list[tuple[str, int]]:
        """The ``(tier, count)`` sequence ``want`` puts on ``server``.

        Highest per-VM demand first, each tier bounded by the free slots
        left and its Eq. 7 headroom.  Shared by the real placement and
        the side-effect-free probe, so both replay the same sequence.
        """
        server_id = server.node_id
        free = self.ledger.slot_cap[server_id] - self.ledger.used_slots_id(
            server_id
        )
        caps = self._caps(allocation, server_id, want)
        peak = self._plan.peak
        fill = []
        for tier in sorted(want, key=peak.__getitem__, reverse=True):
            if free <= 0:
                break
            count = min(want[tier], free, caps[tier])
            if count > 0:
                fill.append((tier, count))
                free -= count
        return fill

    def _caps(self, allocation: TenantAllocation, node_id: int, tiers):
        """Remaining Eq. 7 headroom under ``node_id``, per tier of ``tiers``."""
        if not self._wcs:
            # No WCS guarantee: the headroom is the tier size.
            return self._plan.size
        node = self._flat.node_of[node_id]
        return {
            tier: tier_cap_left(self.ha, allocation, node, tier) for tier in tiers
        }

    # ------------------------------------------------------------------
    # the child search shared by Colocate and Balance
    # ------------------------------------------------------------------
    def _walk(
        self,
        allocation: TenantAllocation,
        want: dict[str, int],
        subtree: Node,
        ceiling: Node,
        option,
        *option_args,
        key_tiers: tuple[str, ...] | None = None,
        bandwidth: bool = False,
    ) -> None:
        """Offer ``want`` to ``subtree``'s children until none takes more.

        Algorithm 1 tries the best child and, on overcommit, deallocates
        and tries the next.  A failed try rolls back exactly — ``want``,
        counts and every reservation are as the scan saw them — so "the
        next" is read off the same scan: the children are ranked once
        (highest value, ties to the earliest child, the order successive
        fresh scans would produce) and walked down.  Only a try that
        placed VMs changes the ledger and pays for a new scan.  A failed
        child stays excluded for the rest of the walk.

        Once one real try has failed, a server child is first probed
        (:meth:`TenantAllocation.probe`) for overcommitting its own
        uplink, which rejects it without touching any state.

        ``option(allocation, want, *option_args, child_id, free)`` values
        one child: ``(value, request)`` or ``None``.
        """
        node_of = self._flat.node_of
        excluded: set[int] = set()
        evaluate = partial(option, allocation, want, *option_args)
        scan = partial(self._scan, allocation, subtree, excluded, evaluate, bandwidth)
        probe = False
        while want:
            tiers = key_tiers
            if tiers is None:
                # Eq. 7 headroom depends on the counts only under WCS.
                tiers = tuple(want) if self._wcs else ()
            classes: dict = {}
            pick = scan(tiers, classes, None)
            c = _obs.counters
            if c is not None:
                c.bump("cloudmirror.scans")
            ranked = None
            while pick is not None and not self._try_child(
                allocation, want, pick[2], node_of[pick[1]], ceiling, probe
            ):
                probe = True
                excluded.add(pick[1])
                if ranked is None:
                    # Ranked lazily: a first try that succeeds never pays.
                    found: list = []
                    scan(tiers, classes, found)
                    found.sort(key=_VALUE, reverse=True)
                    ranked = iter(found)
                pick = next(ranked, None)
            if pick is None:
                return

    def _scan(
        self,
        allocation: TenantAllocation,
        subtree: Node,
        excluded: set[int],
        evaluate,
        bandwidth: bool,
        key_tiers: tuple[str, ...],
        classes: dict,
        ranked: list | None,
    ):
        """Best ``(value, child_id, request)`` over ``subtree``'s children.

        Children in identical reservation states — same free slots,
        same per-tier counts of ``key_tiers`` and, with ``bandwidth``,
        same nominal availability; ancestors above the child are shared —
        get identical options from ``evaluate(child_id, free)``, and the
        strict comparison means only the first of each equivalence class
        can win, so ``classes`` holds one evaluation per class.  On
        homogeneous (sub)trees this collapses the scan from O(children)
        evaluations to one per distinct state.

        With a ``ranked`` list (after a failed try, same ledger state)
        every eligible child is appended with its class's option instead
        and nothing is evaluated twice.
        """
        ledger = self.ledger
        free_slots_id = ledger.free_slots_id
        available_up = ledger.nominal_available_up_id
        available_down = ledger.nominal_available_down_id
        count_key = allocation.count_key
        best = None
        for child_id in self._flat.children_ids[subtree.node_id]:
            if child_id in excluded:
                continue
            free = free_slots_id(child_id)
            if free <= 0:
                continue
            counts = key_tiers and count_key(child_id, key_tiers)
            if bandwidth:
                key = (free, available_up(child_id), available_down(child_id), counts)
            else:
                key = (free, counts)
            option = classes.get(key, _UNSEEN)
            if option is _UNSEEN:
                option = classes[key] = evaluate(child_id, free)
            elif ranked is None:
                continue
            if option is None:
                continue
            if ranked is not None:
                ranked.append((option[0], child_id, option[1]))
            elif best is None or option[0] > best[0]:
                best = (option[0], child_id, option[1])
        return best

    def _try_child(
        self,
        allocation: TenantAllocation,
        want: dict[str, int],
        request: dict[str, int],
        child: Node,
        ceiling: Node,
        probe: bool,
    ) -> int:
        """Recurse into ``child`` with ``request``; roll back on overcommit.

        Returns the number of VMs that stayed placed.  ``want`` is reduced
        by exactly that amount.  With ``probe``, a server whose own uplink
        would overcommit is rejected before anything is reserved.

        An offer that places nothing leaves every array as it found it, so
        it is remembered as ``(state version, child, ceiling, *request)``
        and answered from ``_failed`` when Colocate, a Balance pass or a
        later hand-down from above repeats it.  ``request`` keeps its
        order (option ties break on it).  The set lives for one search:
        versions are per allocation, and the ledger moves between searches.
        """
        c = _obs.counters
        child_id = child.node_id
        failed = self._failed
        key = None
        if probe or failed:  # no failure yet this search: no key to pay for
            key = (allocation.version, child_id, ceiling.node_id, *request.items())
            if key in failed:
                if c is not None:
                    c.bump("cloudmirror.memo_hits")
                return 0
        if (
            probe
            and child.is_server
            and allocation.probe(
                child_id, self._server_fill(allocation, request, child)
            )
        ):
            if c is not None:
                c.bump("cloudmirror.probe_rejects")
            failed.add(key)
            return 0
        if c is not None:
            c.bump("cloudmirror.tries")
        savepoint = allocation.savepoint()
        remainder = dict(request)
        self._alloc(allocation, remainder, child, ceiling)
        placed = 0
        if self.ledger.has_overcommit():
            allocation.rollback(savepoint)
        else:
            for tier, asked in request.items():
                got = asked - remainder.get(tier, 0)
                if got:
                    placed += got
                    want[tier] -= got
                    if want[tier] == 0:
                        del want[tier]
        if not placed:
            if c is not None:
                c.bump("cloudmirror.tries_failed")
            if key is None:
                # Nothing stayed, so the version is again the one tried from.
                key = (allocation.version, child_id, ceiling.node_id, *request.items())
            failed.add(key)
        return placed

    # ------------------------------------------------------------------
    # Colocate
    # ------------------------------------------------------------------
    def _bw_saving_worthwhile(self, subtree: Node) -> bool:
        """Gate on Colocate: feasible under HA, and desirable under oppHA."""
        if self._wcs and self.ha.required_wcs >= 0.5:
            # With RWCS >= 50%, no tier may put a majority under a subtree
            # at or below the anti-affinity level, so no saving is possible
            # there (§4.4).
            if subtree.level - 1 <= self.ha.laa_level:
                return False
        if self._spreading:
            return saving_desirable(
                self.ledger, subtree, self.estimator.expected_per_vm_demand
            )
        return True

    def _colocate(
        self,
        allocation: TenantAllocation,
        want: dict[str, int],
        subtree: Node,
        ceiling: Node,
    ) -> None:
        """Place the (child, tier set) picks with the largest saving first.

        Tiers whose per-VM demand is below the children's nominal
        per-slot bandwidth are excluded — they are better used later to
        balance slot/bandwidth utilization (Fig. 6).  Without Balance
        there is nothing to pair them with later, so they are colocated
        too ("blind" colocation).
        """
        threshold = (
            self._low_bw_threshold(subtree) if self.enable_balance else -math.inf
        )
        # Every candidate quantity (hose/trunk counts, Eq. 7 headroom) is a
        # function of the child's counts over all tiers.
        walk = partial(self._walk, allocation, want, subtree, ceiling)
        walk(self._coloc_option, threshold, key_tiers=allocation.internal_tiers)

    def _low_bw_threshold(self, subtree: Node) -> float:
        """Nominal per-slot bandwidth of the children (Fig. 6 heuristic).

        Depends on the topology and the current failure mask — a failed
        subtree is absent from a pruned fabric, so its alive slot count
        (zero) must drop it from the mean here too.  Memoized per
        subtree, keyed by the mask generation (static ledgers stay at
        version 0, so the cache never invalidates without failures).
        """
        version = self.ledger.mask_version()
        cached = self._threshold_cache.get(subtree.node_id)
        if cached is not None and cached[0] == version:
            return cached[1]
        flat = self._flat
        alive_slots = self.ledger.alive_subtree_slots_id
        values = []
        for child_id in flat.children_ids[subtree.node_id]:
            slots = alive_slots(child_id)
            up = flat.nominal_up[child_id]
            down = flat.nominal_down[child_id]
            nominal = up if up < down else down
            if slots > 0 and math.isfinite(nominal):
                values.append(nominal / slots)
        threshold = _mean(values) if values else 0.0
        self._threshold_cache[subtree.node_id] = (version, threshold)
        return threshold

    def _coloc_option(
        self,
        allocation: TenantAllocation,
        want: dict[str, int],
        threshold: float,
        child_id: int,
        free: int,
    ) -> tuple[float, dict[str, int]] | None:
        """Best ``(saving, request)`` with a verified positive saving.

        Hose candidates use Eq. 2, trunk candidates Eqs. 4-6 (saving
        verified with Eq. 4, as §4.2 requires); only tiers of ``want``
        with per-VM demand of at least ``threshold`` anchor a candidate.
        The first of equally good candidates wins.
        """
        plan = self._plan
        peak = plan.peak
        sizes = plan.size
        caps = self._caps(allocation, child_id, want)
        count_id = allocation.count_id
        best = None
        best_saving = 0.0
        # Hose candidates (Eq. 2): a majority of a self-loop tier in child.
        hose = plan.hose
        for tier, left in want.items():
            send = hose.get(tier)
            if send is None or peak[tier] < threshold:
                continue
            add = min(left, free, caps[tier])
            if add <= 0:
                continue
            size = sizes[tier]
            here = count_id(child_id, tier)
            after = here + add
            if after <= size / 2.0:
                continue
            crossing_before = min(here, size - here) * send
            crossing_after = min(after, size - after) * send
            saving = add * send - (crossing_after - crossing_before)
            if saving > best_saving:
                best, best_saving = {tier: add}, saving
        # Trunk candidates (Eqs. 4-6): colocate both endpoints of an edge.
        for edge, src, dst, src_first in plan.trunk:
            src_want = want.get(src, 0)
            dst_want = want.get(dst, 0)
            if not (
                (src_want and peak[src] >= threshold)
                or (dst_want and peak[dst] >= threshold)
            ):
                continue
            # Fill the higher-coefficient endpoint first (maximizes Eq. 4).
            if src_first:
                src_add = min(src_want, free, caps.get(src, 0))
                dst_add = min(dst_want, free - src_add, caps.get(dst, 0))
            else:
                dst_add = min(dst_want, free, caps.get(dst, 0))
                src_add = min(src_want, free - dst_add, caps.get(src, 0))
            if src_add + dst_add <= 0:
                continue
            src_size = sizes[src]
            dst_size = sizes[dst]
            src_here = count_id(child_id, src)
            dst_here = count_id(child_id, dst)
            saving = trunk_saving(
                edge, src_here + src_add, dst_here + dst_add, src_size, dst_size
            ) - trunk_saving(edge, src_here, dst_here, src_size, dst_size)
            if saving > best_saving:
                request = {}
                if src_add:
                    request[src] = src_add
                if dst_add:
                    request[dst] = dst_add
                best, best_saving = request, saving
        return None if best is None else (best_saving, best)

    def _naive_option(
        self,
        allocation: TenantAllocation,
        want: dict[str, int],
        child_id: int,
        free: int,
    ) -> tuple[int, dict[str, int]] | None:
        """Pack the child with the most free slots, tiers in ``want`` order."""
        caps = self._caps(allocation, child_id, want)
        budget = free
        request: dict[str, int] = {}
        for tier, left in want.items():
            if budget <= 0:
                break
            count = min(left, budget, caps[tier])
            if count > 0:
                request[tier] = count
                budget -= count
        return (free, request) if request else None

    # ------------------------------------------------------------------
    # Balance
    # ------------------------------------------------------------------
    def _balance(
        self,
        allocation: TenantAllocation,
        want: dict[str, int],
        subtree: Node,
        ceiling: Node,
    ) -> None:
        """Drive each child's slot and bandwidth utilization toward 100%.

        In spread mode (§4.5 opportunistic HA, saving undesirable) one VM
        at a time goes to the emptiest child instead.
        """
        walk = partial(self._walk, allocation, want, subtree, ceiling)
        if self._spreading and not saving_desirable(
            self.ledger, subtree, self.estimator.expected_per_vm_demand
        ):
            walk(self._spread_option)
        else:
            walk(self._greedy_fill, False, bandwidth=True)
        if want:
            # Second pass ignoring the (conservative, additive) bandwidth
            # estimates: the per-VM worst case overstates Eq. 1's min()
            # terms, so a remainder here may still fit.  The exact
            # overcommit check at each _try_child boundary remains the
            # real capacity gate.
            walk(self._greedy_fill, True)

    def _greedy_fill(
        self,
        allocation: TenantAllocation,
        want: dict[str, int],
        ignore_bandwidth: bool,
        child_id: int,
        slots_free: int,
    ) -> tuple[float, dict[str, int]] | None:
        """Greedy tier-granularity fill of one child: ``(score, fill)``.

        The greedy works at tier granularity (the paper's speed-up: VMs
        of one tier are identical) over three dimensions — slots,
        outgoing bandwidth, incoming bandwidth — using utilization
        fractions as the common metric.
        """
        ledger = self.ledger
        if ignore_bandwidth:
            up_free = down_free = math.inf
        else:
            up_free = max(0.0, ledger.nominal_available_up_id(child_id))
            down_free = max(0.0, ledger.nominal_available_down_id(child_id))
        finite_up = math.isfinite(up_free)
        finite_down = math.isfinite(down_free)
        rate_up = finite_up and up_free > 0
        rate_down = finite_down and down_free > 0
        slots_denom = slots_free if slots_free > 1 else 1
        demand = self._plan.demand
        caps = self._caps(allocation, child_id, want)
        fill: dict[str, int] = {}
        used_slots = 0
        used_up = 0.0
        used_down = 0.0
        remaining = dict(want)
        while True:
            best_tier = None
            best_count = 0
            best_min_util = -1.0
            for tier, left in remaining.items():
                if left <= 0:
                    continue
                out, into = demand[tier]
                cap = caps[tier] - fill.get(tier, 0)
                count = min(left, slots_free - used_slots, cap)
                if count <= 0:
                    continue
                if out > 0 and finite_up:
                    bound = int((up_free - used_up) / out)
                    if bound < count:
                        count = bound
                if into > 0 and finite_down:
                    bound = int((down_free - used_down) / into)
                    if bound < count:
                        count = bound
                if count <= 0:
                    continue
                min_util = (used_slots + count) / slots_denom
                if rate_up:
                    util = (used_up + count * out) / up_free
                    if util < min_util:
                        min_util = util
                if rate_down:
                    util = (used_down + count * into) / down_free
                    if util < min_util:
                        min_util = util
                if min_util > best_min_util:
                    best_min_util = min_util
                    best_tier = tier
                    best_count = count
            if best_tier is None:
                break
            out, into = demand[best_tier]
            fill[best_tier] = fill.get(best_tier, 0) + best_count
            used_slots += best_count
            used_up += best_count * out
            used_down += best_count * into
            remaining[best_tier] -= best_count
            if remaining[best_tier] <= 0:
                del remaining[best_tier]
        if not fill:
            return None
        # Score: how full the child ends up, averaged over the finite dims.
        score = used_slots / slots_denom
        dims = 1
        if rate_up:
            score += used_up / up_free
            dims += 1
        if rate_down:
            score += used_down / down_free
            dims += 1
        return score / dims, fill

    def _spread_option(
        self,
        allocation: TenantAllocation,
        want: dict[str, int],
        child_id: int,
        free: int,
    ) -> tuple[int, dict[str, int]] | None:
        """Opportunistic-HA: one VM of the largest tier, emptiest child."""
        tier = max(want, key=want.__getitem__)
        if self._caps(allocation, child_id, (tier,))[tier] <= 0:
            return None
        return free, {tier: 1}
