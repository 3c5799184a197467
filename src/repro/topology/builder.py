"""Ready-made datacenter topologies (paper §5 simulation setup).

The paper simulates "a tree-shaped 3-level network topology inspired by a
real cloud datacenter, with 2048 servers", 25 VM slots per server, 10 Gbps
server uplinks and 32:8:1 oversubscription between the server, ToR and
aggregation levels (mimicking Facebook's published datacenter numbers).

:func:`three_level_tree` builds that shape parametrically; the benchmark
defaults shrink the server count but keep the shape and oversubscription.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import TopologyError
from repro.topology.tree import Node, Topology, TopologyBuilder

__all__ = [
    "DatacenterSpec",
    "PodSpec",
    "RackSpec",
    "heterogeneous_from_spec",
    "heterogeneous_tree",
    "multi_rooted_tree",
    "paper_datacenter",
    "three_level_tree",
]

# Levels of the standard 3-level tree.
LEVEL_SERVER = 0
LEVEL_TOR = 1
LEVEL_AGG = 2
LEVEL_CORE = 3


@dataclass(frozen=True)
class DatacenterSpec:
    """Parameters of the standard 3-level oversubscribed datacenter.

    ``tor_oversub`` is the ratio between a rack's aggregate server
    bandwidth and the ToR uplink; ``agg_oversub`` between a pod's aggregate
    ToR-uplink bandwidth and the agg uplink.  The paper's 32:8:1 topology
    corresponds to ``tor_oversub=4`` and ``agg_oversub=8`` (32/8 and 8/1).
    """

    servers_per_rack: int = 32
    racks_per_pod: int = 8
    pods: int = 8
    slots_per_server: int = 25
    server_uplink: float = 10_000.0  # 10 Gbps in Mbps
    tor_oversub: float = 4.0
    agg_oversub: float = 8.0

    def __post_init__(self) -> None:
        if min(self.servers_per_rack, self.racks_per_pod, self.pods) < 1:
            raise TopologyError("datacenter dimensions must be >= 1")
        if self.slots_per_server < 1:
            raise TopologyError("slots_per_server must be >= 1")
        if self.server_uplink <= 0:
            raise TopologyError("server_uplink must be positive")
        if self.tor_oversub < 1 or self.agg_oversub < 1:
            raise TopologyError("oversubscription factors must be >= 1")

    @property
    def num_servers(self) -> int:
        return self.servers_per_rack * self.racks_per_pod * self.pods

    @property
    def tor_uplink(self) -> float:
        if math.isinf(self.server_uplink):
            return math.inf
        return self.servers_per_rack * self.server_uplink / self.tor_oversub

    @property
    def agg_uplink(self) -> float:
        if math.isinf(self.server_uplink):
            return math.inf
        return self.racks_per_pod * self.tor_uplink / self.agg_oversub

    @property
    def total_oversubscription(self) -> float:
        """End-to-end server-to-core oversubscription (Fig. 9 x-axis)."""
        return self.tor_oversub * self.agg_oversub


def three_level_tree(spec: DatacenterSpec, *, unlimited: bool = False) -> Topology:
    """Build the standard server / ToR / agg / core tree from a spec.

    With ``unlimited=True`` the enforced capacities become infinite (the
    idealized Table 1 topology) while the spec's real values remain as the
    *nominal* capacities that placement heuristics reason about.
    """

    def capacity(value: float) -> tuple[float, float]:
        return (math.inf if unlimited else value, value)

    rack = (
        capacity(spec.tor_uplink),
        spec.servers_per_rack,
        spec.slots_per_server,
        capacity(spec.server_uplink),
    )
    pod = (capacity(spec.agg_uplink), (rack,) * spec.racks_per_pod)
    return _three_levels((pod,) * spec.pods)


def _three_levels(pods) -> Topology:
    """The core -> agg -> ToR -> server tree, ids in depth-first preorder.

    ``pods`` yields ``(agg_capacity, racks)`` and each rack is
    ``(tor_capacity, servers, slots_per_server, server_capacity)``; a
    capacity is an ``(enforced, nominal)`` pair, the same both ways.
    """
    builder = TopologyBuilder()
    core = builder.switch("core", LEVEL_CORE)

    def add(parent: Node, name: str, level: int, slots: int, capacity) -> Node:
        enforced, nominal = capacity
        node = Node(
            builder._take_id(), name, level, slots, enforced, enforced, nominal, nominal
        )
        TopologyBuilder.attach(parent, node)
        return node

    for pod, (agg_capacity, racks) in enumerate(pods):
        agg = add(core, f"agg-{pod}", LEVEL_AGG, 0, agg_capacity)
        for rack, (tor_capacity, servers, slots, server_capacity) in enumerate(racks):
            tor = add(agg, f"tor-{pod}-{rack}", LEVEL_TOR, 0, tor_capacity)
            for index in range(servers):
                name = f"srv-{pod}-{rack}-{index}"
                add(tor, name, LEVEL_SERVER, slots, server_capacity)
    return Topology(core)


def multi_rooted_tree(spec: DatacenterSpec, cores: int = 4) -> Topology:
    """A multi-rooted (k-core) datacenter as a logical single-root tree.

    Paper §4: "For simplicity, we describe our algorithm assuming a
    single-rooted tree, however our algorithm can similarly be applied to
    a multi-rooted tree."  With ECMP spreading traffic evenly over the
    ``cores`` core switches, the bandwidth available between two pods is
    the *sum* of the per-core paths, so for reservation accounting the
    multi-root collapses to one logical core whose agg uplinks carry
    ``cores`` times the per-core capacity.  That collapsed tree is what
    this builder constructs; the placement algorithms run on it
    unchanged.
    """
    if cores < 1:
        raise TopologyError("need at least one core switch")
    fattened = DatacenterSpec(
        servers_per_rack=spec.servers_per_rack,
        racks_per_pod=spec.racks_per_pod,
        pods=spec.pods,
        slots_per_server=spec.slots_per_server,
        server_uplink=spec.server_uplink,
        tor_oversub=spec.tor_oversub,
        # Each of the `cores` planes carries agg_uplink; the logical
        # aggregate divides the oversubscription accordingly (floored so
        # the spec invariant oversub >= 1 holds).
        agg_oversub=max(1.0, spec.agg_oversub / cores),
    )
    return three_level_tree(fattened)


@dataclass(frozen=True)
class RackSpec:
    """One rack of a heterogeneous fabric: its own size, slots, NICs.

    ``tor_uplink=None`` derives the uplink from the rack's aggregate
    server bandwidth and ``tor_oversub`` (the homogeneous rule); an
    explicit value overrides it — per-tier capacity vectors are just
    racks/pods with explicit uplinks.
    """

    servers: int = 32
    slots_per_server: int = 25
    server_uplink: float = 10_000.0
    tor_oversub: float = 4.0
    tor_uplink: float | None = None

    def __post_init__(self) -> None:
        if self.servers < 1:
            raise TopologyError("rack must have >= 1 server")
        if self.slots_per_server < 1:
            raise TopologyError("slots_per_server must be >= 1")
        if self.server_uplink <= 0:
            raise TopologyError("server_uplink must be positive")
        if self.tor_oversub < 1:
            raise TopologyError("tor_oversub must be >= 1")
        if self.tor_uplink is not None and self.tor_uplink <= 0:
            raise TopologyError("tor_uplink must be positive")

    @property
    def effective_tor_uplink(self) -> float:
        if self.tor_uplink is not None:
            return self.tor_uplink
        if math.isinf(self.server_uplink):
            return math.inf
        return self.servers * self.server_uplink / self.tor_oversub


@dataclass(frozen=True)
class PodSpec:
    """One pod: an arbitrary mix of racks behind one agg switch."""

    racks: tuple[RackSpec, ...]
    agg_oversub: float = 8.0
    agg_uplink: float | None = None

    def __post_init__(self) -> None:
        if not self.racks:
            raise TopologyError("pod must have >= 1 rack")
        if self.agg_oversub < 1:
            raise TopologyError("agg_oversub must be >= 1")
        if self.agg_uplink is not None and self.agg_uplink <= 0:
            raise TopologyError("agg_uplink must be positive")

    @property
    def effective_agg_uplink(self) -> float:
        if self.agg_uplink is not None:
            return self.agg_uplink
        total = 0  # not sum(): compensated from Python 3.12, fabrics are pinned
        for rack in self.racks:
            total += rack.effective_tor_uplink
        return math.inf if math.isinf(total) else total / self.agg_oversub


def heterogeneous_tree(pods: tuple[PodSpec, ...] | list[PodSpec]) -> Topology:
    """A 3-level tree with per-pod / per-rack capacity and slot vectors.

    Same node naming and id assignment (depth-first preorder) as
    :func:`three_level_tree`, so symmetric specs and heterogeneous specs
    produce interchangeable layouts when the dimensions coincide — the
    failure suite's pruned-reference comparisons rely on that.
    """
    if not pods:
        raise TopologyError("need at least one pod")
    return _three_levels(
        (
            (pod.effective_agg_uplink,) * 2,
            tuple(
                (
                    (rack.effective_tor_uplink,) * 2,
                    rack.servers,
                    rack.slots_per_server,
                    (rack.server_uplink,) * 2,
                )
                for rack in pod.racks
            ),
        )
        for pod in pods
    )


def heterogeneous_from_spec(
    spec: DatacenterSpec, *, big_every: int = 2
) -> Topology:
    """A deterministic heterogeneous variant of a symmetric spec.

    Every ``big_every``-th rack trades server count for density: half as
    many servers (at least one), each with double slots and a double-
    speed NIC — total slot capacity stays within one rack of the
    symmetric fabric while rack sizes, per-server capacities and ToR
    uplinks all diverge.  This is the default fabric of the ``failure``
    scenario; keyed only by the spec, so the engine can cache it.
    """
    if big_every < 1:
        raise TopologyError("big_every must be >= 1")
    plain = RackSpec(
        servers=spec.servers_per_rack,
        slots_per_server=spec.slots_per_server,
        server_uplink=spec.server_uplink,
        tor_oversub=spec.tor_oversub,
    )
    dense = RackSpec(
        servers=max(1, spec.servers_per_rack // 2),
        slots_per_server=spec.slots_per_server * 2,
        server_uplink=spec.server_uplink * 2,
        tor_oversub=spec.tor_oversub,
    )
    pods = tuple(
        PodSpec(
            racks=tuple(
                dense if rack % big_every == big_every - 1 else plain
                for rack in range(spec.racks_per_pod)
            ),
            agg_oversub=spec.agg_oversub,
        )
        for _ in range(spec.pods)
    )
    return heterogeneous_tree(pods)


def paper_datacenter(*, scale: float = 1.0) -> Topology:
    """The §5 simulation datacenter, optionally scaled down.

    ``scale=1.0`` gives the paper's 2048 servers; ``scale=0.125`` gives 256
    servers with the same shape: 25 slots per server, 10 Gbps NICs, 4:1
    ToR and 8:1 aggregation oversubscription.
    """
    if scale <= 0:
        raise TopologyError("scale must be positive")
    pods = max(1, round(8 * scale))
    spec = DatacenterSpec(
        servers_per_rack=32,
        racks_per_pod=8,
        pods=pods,
        slots_per_server=25,
        server_uplink=10_000.0,
        tor_oversub=4.0,
        agg_oversub=8.0,
    )
    return three_level_tree(spec)
