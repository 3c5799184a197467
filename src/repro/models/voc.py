"""The (generalized) Virtual Oversubscribed Cluster baseline (paper §2.2).

VOC (Oktopus [4], Hadrian [6]) organizes VMs into clusters, each an
internal hose, with per-cluster oversubscribed hoses connecting clusters.
The paper's footnote 7 gives the uplink bandwidth the VOC abstraction
requires for a subtree holding a subset of the VMs:

    C_X,out(VOC) = min( sum_{t in X} sum_{t' != t} N_t_in  * B_snd(t->t'),
                        sum_{t' }    sum_{t != t'} N_t'_out * B_rcv(t->t') )
                   + B_hose

i.e. VOC aggregates *all* inter-component sends into one number and all
inter-component receives into another, taking a single ``min`` — it cannot
see which component talks to which.  The TAG requirement (Eq. 1) takes the
``min`` per component pair, so TAG <= VOC on every link (proved in the
footnote; property-tested in this repo).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.core.bandwidth import BandwidthDemand, hose_requirement
from repro.core.tag import Tag
from repro.errors import ModelError

__all__ = ["VocCluster", "VocModel", "voc_from_tag", "voc_uplink_requirement"]


@dataclass(frozen=True)
class VocCluster:
    """One VOC cluster: an intra-cluster hose plus an inter-cluster hose.

    ``hose_bw`` is the per-VM intra-cluster hose guarantee ``B``;
    ``core_out`` / ``core_in`` are the per-VM inter-cluster guarantees
    ``B/O`` toward the root virtual switch (the generalized form allows a
    different oversubscription per cluster and per direction).
    """

    name: str
    size: int
    hose_bw: float
    core_out: float
    core_in: float

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ModelError(f"cluster {self.name!r}: size must be positive")
        for value, label in (
            (self.hose_bw, "hose_bw"),
            (self.core_out, "core_out"),
            (self.core_in, "core_in"),
        ):
            if not math.isfinite(value) or value < 0:
                raise ModelError(f"cluster {self.name!r}: bad {label} {value!r}")


@dataclass(frozen=True)
class VocModel:
    """A generalized VOC: named clusters connected through a virtual root."""

    clusters: tuple[VocCluster, ...]


def voc_from_tag(tag: Tag) -> VocModel:
    """Map each TAG component to a VOC cluster (the Fig. 3(b) construction).

    * intra-cluster hose = the component's self-loop guarantee,
    * inter-cluster (core) guarantee = the sum of the component's per-VM
      inter-component send/receive guarantees — VOC has only one
      oversubscribed hose per cluster, so destinations are aggregated.
    """
    clusters = []
    for component in tag.internal_components():
        assert component.size is not None
        loop = tag.self_loop(component.name)
        inter_out = 0  # not sum(): compensated from Python 3.12, OVOC is pinned
        for edge in tag.out_edges(component.name):
            inter_out += edge.send
        inter_in = 0
        for edge in tag.in_edges(component.name):
            inter_in += edge.recv
        clusters.append(
            VocCluster(
                name=component.name,
                size=component.size,
                hose_bw=loop.send if loop is not None else 0.0,
                core_out=inter_out,
                core_in=inter_in,
            )
        )
    return VocModel(clusters=tuple(clusters))


def voc_uplink_requirement(tag: Tag, inside: Mapping[str, int]) -> BandwidthDemand:
    """Footnote-7 VOC bandwidth requirement for a subtree uplink.

    Computed from the TAG's true edges but with VOC's aggregation: one
    ``min`` across all inter-component traffic instead of one per pair.
    External components are treated as always outside (with unsized
    externals contributing an unbounded receive/send cap, as in Eq. 1).
    """
    send_inside = recv_outside = 0.0
    send_outside = recv_inside = 0.0
    for edge in tag.iter_edges():
        if edge.is_self_loop:
            continue
        src = tag.component(edge.src)
        dst = tag.component(edge.dst)
        src_in = inside.get(edge.src, 0)
        dst_in = inside.get(edge.dst, 0)
        src_out = math.inf if src.size is None else src.size - src_in
        dst_out = math.inf if dst.size is None else dst.size - dst_in
        send_inside += src_in * edge.send
        send_outside += 0.0 if edge.send == 0 else src_out * edge.send
        recv_inside += dst_in * edge.recv
        recv_outside += 0.0 if edge.recv == 0 else dst_out * edge.recv
    hose = hose_requirement(tag, inside)
    return BandwidthDemand(
        out=min(send_inside, recv_outside) + hose.out,
        into=min(send_outside, recv_inside) + hose.into,
    )
