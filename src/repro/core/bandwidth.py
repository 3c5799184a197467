"""Bandwidth mathematics of the TAG model (paper §4.1, §4.2, §4.5).

The central quantity is Eq. 1: for a subtree holding a subset of a tenant's
VMs, the bandwidth that must be reserved on the subtree's uplink, in each
direction, so that every guarantee in the TAG can be met for *any* traffic
matrix consistent with the TAG.  For the outgoing direction:

    C_X,out = sum over components t with VMs inside (X)
              sum over components t' with VMs outside (X-bar)
              min(N_t_in * B_snd(t->t'),  N_t'_out * B_rcv(t->t'))

split by the paper into the inter-component part (``B_trunk``, t != t') and
the intra-component part (``B_hose``, t == t').  ``C_X,in`` is symmetric.

This module also provides the closed-form colocation-saving conditions:

* Eq. 2 — hose saving requires  N_t_in > N_t / 2,
* Eq. 4 — trunk saving amount  max(N_t_in*B_snd - (N_t' - N_t'_in)*B_rcv, 0),
* Eq. 5/6 — the necessary condition  N_t_in > N_t/2  or  N_t'_in > N_t'/2,
* Eq. 7 — the per-subtree VM cap that guarantees worst-case survivability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.core.tag import Tag, TagEdge

__all__ = [
    "BandwidthDemand",
    "uplink_requirement",
    "hose_requirement",
    "hose_saving_possible",
    "trunk_saving",
    "trunk_saving_possible",
    "wcs_cap",
    "achieved_wcs",
]


@dataclass(frozen=True)
class BandwidthDemand:
    """An (outgoing, incoming) bandwidth pair in Mbps."""

    out: float
    into: float

    def __add__(self, other: "BandwidthDemand") -> "BandwidthDemand":
        return BandwidthDemand(self.out + other.out, self.into + other.into)


def _outside_count(tag: Tag, name: str, inside: Mapping[str, int]) -> float:
    """VMs of ``name`` outside the subtree; ``inf`` for unsized externals."""
    component = tag.component(name)
    if component.size is None:
        return math.inf
    return component.size - inside.get(name, 0)


def _pair_demand(vms: float, per_vm: float) -> float:
    """``vms * per_vm`` with the convention inf * 0 == 0."""
    if per_vm == 0.0 or vms == 0.0:
        return 0.0
    return vms * per_vm


def uplink_requirement(tag: Tag, inside: Mapping[str, int]) -> BandwidthDemand:
    """Eq. 1: bandwidth to reserve on a subtree uplink, both directions.

    ``inside`` maps component name -> number of that component's VMs placed
    inside the subtree.  Components absent from ``inside`` (and all external
    components) are entirely outside.  Counts beyond the component size are
    a caller bug and raise ``ValueError``.
    """
    out = 0.0
    into = 0.0
    for name, count in inside.items():
        size = tag.component(name).size
        if count < 0 or (size is not None and count > size):
            raise ValueError(
                f"inside count {count} for component {name!r} out of range "
                f"[0, {size}]"
            )
    for edge in tag.iter_edges():
        src_in = inside.get(edge.src, 0)
        dst_in = inside.get(edge.dst, 0)
        src_out = _outside_count(tag, edge.src, inside)
        dst_out = _outside_count(tag, edge.dst, inside)
        # Outgoing: traffic from edge.src VMs inside to edge.dst VMs outside.
        if src_in > 0 and dst_out > 0:
            out += min(
                _pair_demand(src_in, edge.send), _pair_demand(dst_out, edge.recv)
            )
        # Incoming: traffic from edge.src VMs outside to edge.dst VMs inside.
        if src_out > 0 and dst_in > 0:
            into += min(
                _pair_demand(src_out, edge.send), _pair_demand(dst_in, edge.recv)
            )
    return BandwidthDemand(out, into)


def hose_requirement(tag: Tag, inside: Mapping[str, int]) -> BandwidthDemand:
    """The ``B_hose`` part of Eq. 1 (self-loop edges only)."""
    loops_only = {
        name: count
        for name, count in inside.items()
        if tag.self_loop(name) is not None
    }
    out = 0.0
    for name, count in loops_only.items():
        loop = tag.self_loop(name)
        assert loop is not None
        size = tag.component(name).size or 0
        out += min(count, size - count) * loop.send
    # A hose crossing is symmetric by construction.
    return BandwidthDemand(out, out)


# ----------------------------------------------------------------------
# Colocation-saving conditions (§4.2)
# ----------------------------------------------------------------------
def hose_saving_possible(inside_count: int, total_size: int) -> bool:
    """Eq. 2: hose bandwidth shrinks only once a strict majority colocates."""
    return inside_count > total_size / 2.0


def trunk_saving(
    edge: TagEdge,
    src_inside: int,
    dst_inside: int,
    src_size: int,
    dst_size: int,
) -> float:
    """Eq. 4: trunk bandwidth saved by partial colocation of both endpoints.

    ``B2 - B1 = max(N_t_in * B_snd - (N_t' - N_t'_in) * B_rcv, 0)`` for the
    edge's outgoing direction.
    """
    if edge.is_self_loop:
        raise ValueError("trunk_saving is defined for inter-component edges")
    if not 0 <= src_inside <= src_size or not 0 <= dst_inside <= dst_size:
        raise ValueError("inside counts out of range")
    return max(src_inside * edge.send - (dst_size - dst_inside) * edge.recv, 0.0)


def trunk_saving_possible(
    src_inside: int, dst_inside: int, src_size: int, dst_size: int
) -> bool:
    """Eq. 6: the necessary condition for any trunk saving.

    More than half of the source tier or of the destination tier must be
    inside the subtree.  Necessary but not sufficient — callers must verify
    with :func:`trunk_saving` (the paper does the same, §4.2 last sentence).
    """
    return src_inside > src_size / 2.0 or dst_inside > dst_size / 2.0


# ----------------------------------------------------------------------
# High availability (§4.5)
# ----------------------------------------------------------------------
def wcs_cap(total_size: int, required_wcs: float) -> int:
    """Eq. 7: max VMs of one tier per fault-domain subtree.

    ``N_t_X <= max(1, int(N_t * (1 - RWCS)))``.  ``required_wcs`` is a
    fraction in [0, 1).
    """
    if not 0.0 <= required_wcs < 1.0:
        raise ValueError(f"required WCS must be in [0, 1), got {required_wcs!r}")
    return max(1, int(total_size * (1.0 - required_wcs)))


def achieved_wcs(per_domain_counts: Mapping[object, int], total_size: int) -> float:
    """Worst-case survivability of one tier given its fault-domain spread.

    WCS = smallest fraction of the tier's VMs that survive the failure of a
    single fault domain = ``1 - max_domain(count) / N_t`` (paper §4.5,
    following Bodik et al.).
    """
    if total_size <= 0:
        raise ValueError("total_size must be positive")
    placed = sum(per_domain_counts.values())
    if placed != total_size:
        raise ValueError(
            f"per-domain counts sum to {placed}, expected tier size {total_size}"
        )
    worst = max(per_domain_counts.values(), default=0)
    return 1.0 - worst / total_size
