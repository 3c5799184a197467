"""Per-tenant allocation state with exact uplink re-reservation.

A :class:`TenantAllocation` records, for one tenant being placed (or
already placed), how many VMs of each tier sit under every topology node.
Whenever VMs are added to a server, the bandwidth requirement of every
uplink on the server's root-path is *recomputed exactly* from Eq. 1 (or the
model-specific requirement function) and the ledger is adjusted by the
delta.  This is what lets colocation *reduce* an earlier reservation: when
the second half of a hose tier lands in the same subtree, the subtree's
uplink reservation drops back toward zero.

Reservations below the current allocation root (``ceiling``) are enforced
during placement; the links from the allocation root up to the tree root
are reserved once at :meth:`finalize` (Algorithm 1 line 6).

An uplink whose requirement is unchanged is not touched: no ledger
read-modify-write, no journal record, no state op (colocation's whole
point is that most re-evaluations come back equal — usually zero).

Hot-path layout: the node id is the only node handle — ``place``,
``finalize``, ``reserved_on`` and the ``iter_*`` read-outs take or yield
ids, and root-path walks iterate the topology's precomputed ancestor id
tuples; per-node reservations are ``(out, into)`` float pairs;
undo records are plain tuples; and the two shipped requirement functions
(TAG Eq. 1 and the footnote-7 VOC form) are *compiled* per tag into
closures over a flattened edge table, memoized on the tag, replicating
the originals' arithmetic term-for-term so results are bit-identical.
They are the only two: any other ``requirement`` is refused.

The undo log (the ledger :class:`Journal` plus the allocation's own
state ops) lasts one search.  Algorithm 1 reads it only to ``Dealloc``
a try that overcommits, so a commit — :meth:`TenantAllocation.finalize`
or :meth:`TenantAllocation.finish_scale_up` returning True — drops it:
a placed tenant keeps its counts and reservations, which are all that
``release``, ``scale_up``, ``scale_down`` and the read-outs need, and
no undo record.

A failing search re-evaluates the same few count vectors over and over
(every try of a child, and every probe of it, retraces the same bumps),
so once the placer reports a failed offer (:meth:`memoize`) Eq. 1
results are kept per count multiset until the search ends.  Eq. 1 reads
counts by name, so the multiset fixes the result; VOC's hose term sums
in insertion order and is never memoized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from repro.core.bandwidth import BandwidthDemand, uplink_requirement
from repro.core.tag import Tag
from repro.errors import ReproError, TagError
from repro.obs import core as _obs
from repro.topology.ledger import Journal, Ledger

__all__ = ["TenantAllocation", "RequirementFn", "Savepoint"]


def _resize_tag(tag: Tag, tier: str, delta: int) -> Tag:
    """A copy of ``tag`` with ``tier`` grown (or shrunk) by ``delta`` VMs."""
    component = tag.component(tier)
    if component.size is None or component.external:
        raise TagError(f"cannot resize external component {tier!r}")
    new_size = component.size + delta
    if new_size < 1:
        raise TagError(f"resize would leave {tier!r} with {new_size} VMs")
    resized = Tag(tag.name)
    for comp in tag.components.values():
        size = new_size if comp.name == tier else comp.size
        resized.add_component(comp.name, size, comp.external)
    for (src, dst), edge in tag.edges.items():
        if edge.is_self_loop:
            resized.add_self_loop(src, edge.send)
        else:
            resized.add_edge(src, dst, edge.send, edge.recv)
    return resized

RequirementFn = Callable[[Tag, Mapping[str, int]], BandwidthDemand]

_ZERO = (0.0, 0.0)

# Undo-log op tags (plain tuples, see the module docstring):
#   (_OP_COUNT, node_id, tier, delta)
#   (_OP_RESERVED, node_id, prev_out, prev_into)
#   (_OP_RESIZE, prev_tag, prev_remaining_dict, prev_finalized)
_OP_COUNT = 0
_OP_RESERVED = 1
_OP_RESIZE = 2


@dataclass(frozen=True)
class Savepoint:
    """A rollback point spanning the ledger journal and the local state.

    A savepoint does not survive a commit: the commit drops the undo log
    it points into, and rolling back to it afterwards raises.
    """

    ledger_ops: int
    state_ops: int
    version: int = 0


# What an allocation reads from its tag is built by _tier_table and the
# two compilers below and memoized on the tag (Tag.derived): a pool
# tenant is compiled once per mutation, and its allocations share it.
def _tier_table(tag: Tag) -> tuple[dict[str, int], tuple[str, ...]]:
    """Internal tier -> size, and the internal tiers in component order."""
    sizes = tag.tier_sizes()
    return sizes, tuple(sizes)


def _edge_rows(tag: Tag) -> tuple:
    """One ``(src, dst, send, recv, src_size, dst_size)`` row per edge."""
    return tuple(
        (
            edge.src,
            edge.dst,
            edge.send,
            edge.recv,
            tag.component(edge.src).size,
            tag.component(edge.dst).size,
        )
        for edge in tag.iter_edges()
    )


def _compile_uplink_requirement(tag: Tag) -> Callable[[Mapping[str, int]], tuple[float, float]]:
    """Compile Eq. 1 for ``tag`` into a closure over a flat edge table.

    Term-for-term identical to
    :func:`repro.core.bandwidth.uplink_requirement` (same edge order,
    same ``inf * 0 == 0`` convention, same accumulation order), minus
    the per-call component lookups and input validation — the counts it
    sees are maintained internally and always in range.  ``None`` sizes
    are unsized (external) components.
    """
    edges = _edge_rows(tag)
    inf = math.inf

    def requirement(inside: Mapping[str, int]) -> tuple[float, float]:
        out = 0.0
        into = 0.0
        get = inside.get
        for src, dst, send, recv, src_size, dst_size in edges:
            src_in = get(src, 0)
            dst_in = get(dst, 0)
            src_out = inf if src_size is None else src_size - src_in
            dst_out = inf if dst_size is None else dst_size - dst_in
            if src_in > 0 and dst_out > 0:
                lhs = 0.0 if send == 0.0 or src_in == 0.0 else src_in * send
                rhs = 0.0 if recv == 0.0 or dst_out == 0.0 else dst_out * recv
                out += lhs if lhs < rhs else rhs
            if src_out > 0 and dst_in > 0:
                lhs = 0.0 if send == 0.0 or src_out == 0.0 else src_out * send
                rhs = 0.0 if recv == 0.0 or dst_in == 0.0 else dst_in * recv
                into += lhs if lhs < rhs else rhs
        return out, into

    return requirement


def _compile_voc_requirement(tag: Tag) -> Callable[[Mapping[str, int]], tuple[float, float]]:
    """Compile the footnote-7 VOC requirement for ``tag`` (see above).

    Term-for-term identical to
    :func:`repro.models.voc.voc_uplink_requirement`: the trunk edges in
    edge order, then the hose term of each self-loop tier in the
    (insertion) order of ``inside``.
    """
    rows = zip(_edge_rows(tag), tag.iter_edges())
    trunk = tuple(row for row, edge in rows if not edge.is_self_loop)
    loops = {
        edge.src: (edge.send, tag.component(edge.src).size or 0)
        for edge in tag.iter_edges()
        if edge.is_self_loop
    }
    inf = math.inf

    def requirement(inside: Mapping[str, int]) -> tuple[float, float]:
        send_inside = recv_outside = 0.0
        send_outside = recv_inside = 0.0
        get = inside.get
        for src, dst, send, recv, src_size, dst_size in trunk:
            src_in = get(src, 0)
            dst_in = get(dst, 0)
            src_out = inf if src_size is None else src_size - src_in
            dst_out = inf if dst_size is None else dst_size - dst_in
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

    return requirement


class _Eq1Memo(dict):
    """One search's Eq. 1 results keyed by count multiset
    (``frozenset(counts.items())``); a vector not yet seen is evaluated
    once, on lookup, and kept."""

    __slots__ = ("_require",)

    def __init__(self, require: Callable[[Mapping[str, int]], tuple[float, float]]):
        super().__init__()
        self._require = require

    def __missing__(self, key: frozenset) -> tuple[float, float]:
        required = self[key] = self._require(dict(key))
        return required


class TenantAllocation:
    """Mutable placement state for one tenant.

    Parameters
    ----------
    tag:
        The tenant request being placed.
    ledger:
        The datacenter reservation ledger (shared, mutated in place).
    requirement:
        Uplink requirement function: the TAG Eq. 1
        (:func:`repro.core.bandwidth.uplink_requirement`, the default)
        or the footnote-7 VOC form
        (:func:`repro.models.voc.voc_uplink_requirement`), which the
        Oktopus placer passes so that each abstraction pays for its own
        aggregation.  Any other function raises :class:`ValueError`.

    The undo log and the Eq. 1 memo (see the module docstring) live for
    one search.  The log grows with every mutation and is dropped, with
    the memo, when :meth:`finalize` or :meth:`finish_scale_up` commits;
    the memo starts at :meth:`memoize` and is also dropped by a rollback
    across a resize and every recompile.  A placed tenant holds neither.
    """

    def __init__(
        self,
        tag: Tag,
        ledger: Ledger,
        requirement: RequirementFn = uplink_requirement,
    ) -> None:
        self.tag = tag
        self.ledger = ledger
        self.requirement = requirement
        self.journal = Journal()
        self.finalized = False
        self._flat = ledger.flat
        self._counts: dict[int, dict[str, int]] = {}
        self._reserved: dict[int, tuple[float, float]] = {}
        self._state_ops: list[tuple] = []
        # State version: every mutation takes a never-reused value and a
        # rollback restores its savepoint's, so while only this allocation
        # moves the ledger, equal versions mean identical counts,
        # reservations and ledger arrays.
        self.version = self._last_version = 0
        self._placed = 0
        self._remaining = tag.tier_sizes()
        self._require: Callable[[Mapping[str, int]], tuple[float, float]]
        self._memo: _Eq1Memo | None = None
        self._recompile()

    def _recompile(self) -> None:
        """Rebuild what is read from ``tag``; called wherever it rebinds."""
        tag = self.tag
        requirement = self.requirement
        if requirement is uplink_requirement:
            self._require = tag.derived(_compile_uplink_requirement)
        else:
            from repro.models.voc import voc_uplink_requirement

            if requirement is not voc_uplink_requirement:
                raise ValueError(
                    f"no compiled form of requirement function {requirement!r}"
                )
            self._require = tag.derived(_compile_voc_requirement)
        self._tier_sizes, self._internal_tiers = tag.derived(_tier_table)
        self._tag_size = tag.size
        self._memo = None

    def memoize(self) -> None:
        """Keep Eq. 1 results for the rest of this search (the placer
        calls this at its first failed offer; admissions whose tries all
        succeed build no key)."""
        if self._memo is None and self.requirement is uplink_requirement:
            self._memo = _Eq1Memo(self._require)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def placed_vms(self) -> int:
        return self._placed

    @property
    def is_complete(self) -> bool:
        return self._placed == self._tag_size

    def remaining_tiers(self) -> dict[str, int]:
        return {t: n for t, n in self._remaining.items() if n > 0}

    def tier_size(self, tier: str) -> int:
        """Declared size of the internal ``tier``."""
        return self._tier_sizes[tier]

    @property
    def internal_tiers(self) -> tuple[str, ...]:
        """Names of the tiers whose VMs this allocation places."""
        return self._internal_tiers

    def count_id(self, node_id: int, tier: str) -> int:
        """VMs of ``tier`` currently placed in the subtree under ``node_id``."""
        counts = self._counts.get(node_id)
        return 0 if counts is None else counts.get(tier, 0)

    def reserved_on(self, node_id: int) -> BandwidthDemand:
        """This tenant's current reservation on ``node_id``'s uplink."""
        return BandwidthDemand(*self._reserved.get(node_id, _ZERO))

    def iter_server_placements(self) -> Iterator[tuple[int, Mapping[str, int]]]:
        """Yield ``(server_id, {tier: count})`` for every server used."""
        is_server = self._flat.is_server
        for node_id, counts in self.iter_node_counts():
            if is_server[node_id]:
                yield node_id, counts

    def iter_node_counts(self) -> Iterator[tuple[int, Mapping[str, int]]]:
        """Yield ``(node_id, {tier: count})`` for every touched node.

        Used to re-account a finished placement under a *different*
        abstraction's requirement function (Table 1's CM+VOC column).
        """
        for node_id, counts in self._counts.items():
            live = {t: n for t, n in counts.items() if n > 0}
            if live:
                yield node_id, live

    def tier_spread(self, tier: str, level: int) -> dict[int, int]:
        """Per-fault-domain VM counts of ``tier`` at ``level`` (WCS input).

        Walks only the nodes this allocation touched (``_counts`` holds
        nothing else) instead of every node at the level — the WCS
        sampler calls this after every admission, and a tenant touches a
        handful of fault domains in a datacenter of thousands.  Output
        is keyed in ascending node-id order for determinism; the WCS
        computation itself is order-insensitive (integer max/sum).
        """
        if not 0 <= level < self._flat.num_levels:
            raise ReproError(f"no tree level {level}")
        node_level = self._flat.level
        found = [
            (node_id, count)
            for node_id, counts in self._counts.items()
            if node_level[node_id] == level and (count := counts.get(tier, 0))
        ]
        found.sort()
        return dict(found)

    # ------------------------------------------------------------------
    # savepoints
    # ------------------------------------------------------------------
    def savepoint(self) -> Savepoint:
        return Savepoint(
            self.journal.savepoint(), len(self._state_ops), self.version
        )

    def rollback(self, savepoint: Savepoint) -> None:
        """Undo everything placed since ``savepoint`` (Algorithm 1 Dealloc).

        Raises, changing nothing, when ``savepoint`` lies beyond the undo
        log: it was taken before a commit (the ledger's rollback checks
        its own half).
        """
        ops = self._state_ops
        if savepoint.state_ops > len(ops):
            raise ReproError("stale savepoint: the undo log was dropped at a commit")
        self.ledger.rollback(self.journal, savepoint.ledger_ops)
        is_server = self._flat.is_server
        while len(ops) > savepoint.state_ops:
            op = ops.pop()
            tag = op[0]
            if tag == _OP_COUNT:
                _, node_id, tier, delta = op
                counts = self._counts[node_id]
                counts[tier] -= delta
                if counts[tier] == 0:
                    del counts[tier]
                if is_server[node_id]:
                    self._placed -= delta
                    self._remaining[tier] += delta
            elif tag == _OP_RESERVED:
                self._reserved[op[1]] = (op[2], op[3])
            elif tag == _OP_RESIZE:
                self.tag = op[1]
                self._recompile()  # and drops the search memo with it
                self._remaining = dict(op[2])
                self.finalized = op[3]
            else:  # pragma: no cover - defensive
                raise ReproError(f"unknown state op {op!r}")
        self.version = savepoint.version

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def place(self, server_id: int, tier: str, count: int, ceiling_id: int) -> bool:
        """Place ``count`` VMs of ``tier`` on server ``server_id``.

        Reserves slots and re-reserves the uplinks of every node strictly
        below ``ceiling_id`` on the server's root-path.  Returns False (with
        no effects) when the server lacks slots.  Bandwidth reservations
        are applied *without* capacity enforcement: the placer checks
        :meth:`repro.topology.ledger.Ledger.has_overcommit` at
        subtree-completion boundaries and rolls back to a savepoint, which
        mirrors Algorithm 1's per-completed-subtree ``ReserveBW``.
        """
        if self.finalized:
            raise ReproError("cannot place into a finalized allocation")
        if count <= 0:
            raise ReproError(f"placement count must be positive, got {count}")
        if self._remaining.get(tier, 0) < count:
            raise ReproError(
                f"placing {count} VMs of {tier!r} but only "
                f"{self._remaining.get(tier, 0)} remain"
            )
        if not self.ledger.reserve_slots(server_id, count, self.journal):
            return False
        self._bump_counts(server_id, tier, count)
        for node_id in self._flat.ancestors[server_id]:
            if node_id == ceiling_id:
                break
            self._update_reservation(node_id)
        return True

    def probe(self, server_id: int, fill: Sequence[tuple[str, int]]) -> bool | None:
        """Would :meth:`place`-ing ``fill`` overcommit the server's own uplink?

        Replays for that one uplink, touching no state, the count bumps
        and reservation deltas ``place`` would apply for each ``(tier,
        count)`` in order (none where the requirement does not change);
        the ledger replays its adjust on the deltas.
        True: a real try is certain to end overcommitted.  ``None``: cannot
        tell, really try — the ledger is already overcommitted (placing
        may *lower* a reservation and clear it).
        """
        ledger = self.ledger
        if ledger.has_overcommit():
            return None
        inside = dict(self._counts.get(server_id, ()))
        prev_out, prev_into = self._reserved.get(server_id, _ZERO)
        require = self._require
        memo = self._memo
        deltas = []
        for tier, count in fill:
            inside[tier] = inside.get(tier, 0) + count
            if memo is None:
                out, into = require(inside)
            else:
                out, into = memo[frozenset(inside.items())]
            if out != prev_out or into != prev_into:
                deltas.append((out - prev_out, into - prev_into))
            prev_out, prev_into = out, into
        return ledger.would_overcommit(server_id, deltas) if deltas else False

    def finalize(self, root_id: int) -> bool:
        """Reserve the path from ``root_id`` (the allocation root) to the
        tree root.

        Call once the whole tenant is placed under ``root_id``
        (Algorithm 1 line 6).  Returns False (undoing only the root-path
        reservations) when any link on the path lacks capacity; the caller
        then rejects the tenant and rolls back the placement below.
        Returns True when the tenant commits, which drops the undo log:
        no savepoint taken before survives it.

        The requirement is evaluated once: every node from the allocation
        root up holds the whole tenant and has seen the same sequence of
        count bumps and undos, so each hop's evaluation would be the same.
        """
        if not self.is_complete:
            raise ReproError("finalize() requires a complete placement")
        counts = self._counts.get(root_id, {})
        if sum(counts.values()) != self._placed:
            raise ReproError(
                f"cannot finalize at {self.ledger._name(root_id)!r}: it holds "
                f"{sum(counts.values())} of the tenant's {self._placed} VMs"
            )
        savepoint = self.savepoint()
        path = self._flat.path_up[root_id]
        if path:
            required = self._evaluate(counts)
            for node_id in path:
                self._reserve(node_id, required)
        if self.ledger.has_overcommit():
            self.rollback(savepoint)
            return False
        self._commit()
        return True

    def release(self) -> None:
        """Release every slot and reservation (tenant departure)."""
        ledger = self.ledger
        for node_id, (out, into) in self._reserved.items():
            if out or into:
                ledger.release_uplink_id(node_id, out, into)
        for server_id, placed in list(self.iter_server_placements()):
            ledger.release_slots(server_id, sum(placed.values()))
        self._counts.clear()
        self._reserved.clear()
        self._placed = 0
        self.version = self._last_version = self._last_version + 1

    # ------------------------------------------------------------------
    # auto-scaling (paper §6 extension)
    # ------------------------------------------------------------------
    def begin_scale_up(self, tier: str, extra: int) -> None:
        """Start adding ``extra`` VMs to ``tier`` of a finalized tenant.

        Swaps in a TAG with the grown component (tier sizes enter Eq. 1,
        so *every* existing reservation is re-derived under the new size)
        and reopens the allocation for placement.  Journalled: a rollback
        to a savepoint taken before this call restores the old TAG, the
        old reservations and the finalized flag.
        """
        if not self.finalized:
            raise ReproError("scale-up requires a finalized allocation")
        if extra <= 0:
            raise ReproError(f"scale-up amount must be positive, got {extra}")
        new_tag = _resize_tag(self.tag, tier, extra)
        self._state_ops.append(
            (_OP_RESIZE, self.tag, dict(self._remaining), self.finalized)
        )
        self.version = self._last_version = self._last_version + 1
        self.tag = new_tag
        self._recompile()
        self._remaining[tier] = self._remaining.get(tier, 0) + extra
        self.finalized = False
        self._refresh_all_reservations()

    def finish_scale_up(self) -> bool:
        """Seal a scale-up once the extra VMs are placed.

        All reservations were maintained exactly during placement (the
        scale-up places with the tree root as ceiling), so this only
        checks completeness and capacity.  On False the log is kept for
        the caller's rollback; True commits and drops it, as
        :meth:`finalize` does.
        """
        if not self.is_complete:
            raise ReproError("finish_scale_up() requires a complete placement")
        if self.ledger.has_overcommit():
            return False
        self._commit()
        return True

    def _commit(self) -> None:
        """Seal the placement and drop this search's undo log and memo."""
        self.finalized = True
        self._memo = None
        self.journal.ops.clear()
        self._state_ops.clear()

    def scale_down(self, tier: str, remove: int) -> None:
        """Remove ``remove`` VMs of ``tier`` from a finalized tenant.

        VMs leave the servers holding the fewest of the tier first (the
        minority placements cause the most crossing), equal holders in
        server-id order: a function of the layout, not of the order the
        search happened to touch the servers in.  Shrinking a TAG
        can only lower Eq. 1's min() terms, so the re-reservation can
        never exceed capacity and the operation always succeeds.
        """
        if not self.finalized:
            raise ReproError("scale-down requires a finalized allocation")
        component = self.tag.component(tier)
        assert component.size is not None
        if not 0 < remove < component.size:
            raise ReproError(
                f"can remove between 1 and {component.size - 1} VMs of "
                f"{tier!r}, got {remove}"
            )
        holders = sorted(
            (
                (server_id, counts[tier])
                for server_id, counts in self.iter_server_placements()
                if counts.get(tier, 0) > 0
            ),
            key=lambda item: (item[1], item[0]),
        )
        self.tag = _resize_tag(self.tag, tier, -remove)
        self._recompile()
        left = remove
        for server_id, count in holders:
            if left == 0:
                break
            take = min(count, left)
            left -= take
            self.ledger.release_slots(server_id, take)
            for node_id in self._flat.ancestors[server_id]:
                counts = self._counts[node_id]
                counts[tier] -= take
                if counts[tier] == 0:
                    del counts[tier]
            self._placed -= take
        assert left == 0, "holders must cover the tier"
        self.version = self._last_version = self._last_version + 1
        self._refresh_all_reservations(journalled=False)

    def _refresh_all_reservations(self, journalled: bool = True) -> None:
        """Re-derive every touched uplink's reservation from current counts."""
        root_id = self._flat.root_id
        for node_id, counts in list(self._counts.items()):
            if node_id == root_id:
                continue
            required = self._evaluate(counts)
            if journalled:
                self._reserve(node_id, required)
                continue
            prev = self._reserved.get(node_id, _ZERO)
            if required == prev:
                continue
            delta_out = required[0] - prev[0]
            delta_in = required[1] - prev[1]
            if delta_out > 0 or delta_in > 0:
                raise ReproError("scale-down unexpectedly raised a reservation")
            self.ledger.release_uplink_id(node_id, -delta_out, -delta_in)
            self._reserved[node_id] = required

    # ------------------------------------------------------------------
    def _bump_counts(self, server_id: int, tier: str, count: int) -> None:
        counts_by_node = self._counts
        ops = self._state_ops
        for node_id in self._flat.ancestors[server_id]:
            counts = counts_by_node.get(node_id)
            if counts is None:
                counts = counts_by_node[node_id] = {}
            counts[tier] = counts.get(tier, 0) + count
            ops.append((_OP_COUNT, node_id, tier, count))
        self.version = self._last_version = self._last_version + 1
        self._placed += count
        self._remaining[tier] -= count

    def _evaluate(self, counts: Mapping[str, int]) -> tuple[float, float]:
        """The ``(out, into)`` requirement of an uplink with ``counts`` below it."""
        c = _obs.counters
        if c is not None:
            c.bump("placement.reservation_updates")
        memo = self._memo
        if memo is None:
            return self._require(counts)
        return memo[frozenset(counts.items())]

    def _update_reservation(self, node_id: int) -> None:
        """Recompute the requirement on ``node_id``'s uplink, apply the delta."""
        self._reserve(node_id, self._evaluate(self._counts.get(node_id, {})))

    def _reserve(self, node_id: int, required: tuple[float, float]) -> None:
        """Move ``node_id``'s uplink reservation to ``required``, journalled.

        An unchanged requirement writes nothing.  That is exact: a zero
        delta leaves every stored value, maximum and over-set membership
        as it was, so only the journals are shorter.
        """
        prev = self._reserved.get(node_id, _ZERO)
        if required == prev:
            return
        c = _obs.counters
        if c is not None:
            c.bump("placement.reservation_writes")
        prev_out, prev_into = prev
        self.ledger.adjust_uplink_id(
            node_id,
            required[0] - prev_out,
            required[1] - prev_into,
            self.journal,
        )
        self._state_ops.append((_OP_RESERVED, node_id, prev_out, prev_into))
        self._reserved[node_id] = required
        self.version = self._last_version = self._last_version + 1
