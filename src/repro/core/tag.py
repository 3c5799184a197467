"""The Tenant Application Graph (TAG) abstraction (paper §3).

A TAG is a directed graph.  Each vertex is an application *component* (also
called a tier): a set of ``size`` VMs performing the same function.  Each
directed edge ``(u, v)`` carries an ordered pair ``<S, R>`` of per-VM
bandwidth guarantees: every VM in ``u`` may send at rate ``S`` toward the
set of VMs in ``v``, and every VM in ``v`` may receive at rate ``R`` from
the set of VMs in ``u``.  A self-loop ``(u, u)`` carries a single value
``SR`` and is exactly a hose model among the VMs of ``u``.

Special *external* components model endpoints outside the tenant (the
Internet, a shared storage service, another tenant).  External components
never have VMs placed by us; their size is optional.

The hose model and the pipe model are special cases (paper §3):

* one component with a self-loop  ==  hose,
* one VM per component, no self-loops  ==  pipe.

Bandwidth values are expressed in Mbps throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Mapping, TypeVar

from repro.errors import (
    DuplicateComponentError,
    DuplicateEdgeError,
    InvalidGuaranteeError,
    InvalidSizeError,
    TagError,
    UnknownComponentError,
)

__all__ = ["Component", "TagEdge", "Tag"]

_T = TypeVar("_T")


def _check_bandwidth(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0:
        raise InvalidGuaranteeError(f"{what} must be finite and >= 0, got {value!r}")
    return value


@dataclass(frozen=True)
class Component:
    """A TAG vertex: ``size`` VMs performing the same function.

    ``external`` components model endpoints outside the tenant.  Their
    ``size`` may be ``None``, meaning "no receive-side cap is known" when
    computing aggregate guarantees toward them.
    """

    name: str
    size: int | None
    external: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise TagError("component name must be a non-empty string")
        if self.size is None:
            if not self.external:
                raise InvalidSizeError(
                    f"component {self.name!r}: only external components may omit size"
                )
        else:
            if int(self.size) != self.size or self.size <= 0:
                raise InvalidSizeError(
                    f"component {self.name!r}: size must be a positive integer, "
                    f"got {self.size!r}"
                )
            object.__setattr__(self, "size", int(self.size))


@dataclass(frozen=True)
class TagEdge:
    """A directed TAG edge ``(src, dst)`` labelled ``<send, recv>``.

    For a self-loop (``src == dst``) the paper specifies a single guarantee
    ``SR``; we store it in both fields, which keeps Eq. 1 uniform because
    ``B_snd(t->t) == B_rcv(t->t)`` always holds for self-loops.
    """

    src: str
    dst: str
    send: float
    recv: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "send", _check_bandwidth(self.send, "send guarantee"))
        object.__setattr__(self, "recv", _check_bandwidth(self.recv, "recv guarantee"))
        if self.is_self_loop and self.send != self.recv:
            raise InvalidGuaranteeError(
                f"self-loop on {self.src!r} must have send == recv "
                f"(single SR value), got {self.send} != {self.recv}"
            )

    @property
    def is_self_loop(self) -> bool:
        return self.src == self.dst

    def scaled(self, factor: float) -> "TagEdge":
        """Return a copy with both guarantees multiplied by ``factor``."""
        return TagEdge(self.src, self.dst, self.send * factor, self.recv * factor)


class Tag:
    """A Tenant Application Graph (mutable builder + query interface).

    Everything derived from a tag — its sizes and per-VM demands, and
    what placement builds from it (Eq. 1 and VOC edge tables, search
    plans, pipe expansions, scaled peak copies) — lives in one memo on
    the tag (:meth:`derived`) that every mutator clears.  A placement
    reserves for the tag as it is when placement starts; a release
    gives back what was reserved, whatever the tag became since.

    Example
    -------
    The three-tier web application of paper Fig. 2(a)::

        tag = Tag("web-app")
        tag.add_component("web", size=4)
        tag.add_component("logic", size=4)
        tag.add_component("db", size=4)
        tag.add_edge("web", "logic", send=500.0, recv=500.0)
        tag.add_edge("logic", "db", send=100.0, recv=100.0)
        tag.add_self_loop("db", 50.0)
    """

    def __init__(self, name: str = "tenant") -> None:
        self.name = name
        self._components: dict[str, Component] = {}
        self._edges: dict[tuple[str, str], TagEdge] = {}
        self._memo: dict = {}

    def _invalidate(self) -> None:
        self._memo.clear()

    def derived(self, build: Callable[..., _T], *args: Hashable) -> _T:
        """``build(self, *args)``, computed once until the next mutation.

        The memo is keyed by ``build`` (and ``args``), never pickled, and
        shared by every caller: treat what it returns as read-only.
        """
        key = (build, *args) if args else build
        memo = self._memo
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = build(self, *args)
            return value

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_memo"] = {}
        return state

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_component(
        self, name: str, size: int | None = None, external: bool = False
    ) -> Component:
        """Add a component (tier) of ``size`` VMs; returns it."""
        if name in self._components:
            raise DuplicateComponentError(f"component {name!r} already in TAG")
        component = Component(name, size, external)
        self._components[name] = component
        self._invalidate()
        return component

    def add_edge(self, src: str, dst: str, send: float, recv: float) -> TagEdge:
        """Add the directed edge ``src -> dst`` with per-VM pair ``<send, recv>``."""
        self._require(src)
        self._require(dst)
        if src == dst:
            raise TagError(
                f"use add_self_loop() for intra-component guarantees on {src!r}"
            )
        if (src, dst) in self._edges:
            raise DuplicateEdgeError(f"edge {src!r}->{dst!r} already in TAG")
        edge = TagEdge(src, dst, send, recv)
        self._edges[(src, dst)] = edge
        self._invalidate()
        return edge

    def add_self_loop(self, component: str, bandwidth: float) -> TagEdge:
        """Add a self-loop (intra-component hose) with guarantee ``SR``."""
        comp = self._require(component)
        if comp.external:
            raise TagError(f"external component {component!r} cannot have a self-loop")
        if (component, component) in self._edges:
            raise DuplicateEdgeError(f"self-loop on {component!r} already in TAG")
        edge = TagEdge(component, component, bandwidth, bandwidth)
        self._edges[(component, component)] = edge
        self._invalidate()
        return edge

    def add_undirected_edge(self, u: str, v: str, send: float, recv: float) -> None:
        """Convenience from footnote 6: add symmetric edges in both directions."""
        self.add_edge(u, v, send, recv)
        self.add_edge(v, u, recv, send)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _require(self, name: str) -> Component:
        try:
            return self._components[name]
        except KeyError:
            raise UnknownComponentError(f"component {name!r} not in TAG") from None

    @property
    def components(self) -> Mapping[str, Component]:
        return dict(self._components)

    @property
    def edges(self) -> Mapping[tuple[str, str], TagEdge]:
        return dict(self._edges)

    def component(self, name: str) -> Component:
        return self._require(name)

    def has_component(self, name: str) -> bool:
        return name in self._components

    def internal_components(self) -> list[Component]:
        """Components whose VMs we must place (non-external)."""
        return [c for c in self._components.values() if not c.external]

    def external_components(self) -> list[Component]:
        return [c for c in self._components.values() if c.external]

    def tier_names(self) -> list[str]:
        return [c.name for c in self.internal_components()]

    def tier_sizes(self) -> dict[str, int]:
        """Internal tier -> size, in component order (a fresh dict)."""
        return dict(self.derived(_tier_sizes))

    @property
    def size(self) -> int:
        """Total number of VMs to place (externals excluded)."""
        return self.derived(_size)

    @property
    def num_tiers(self) -> int:
        return len(self.internal_components())

    def edge(self, src: str, dst: str) -> TagEdge | None:
        return self._edges.get((src, dst))

    def self_loop(self, component: str) -> TagEdge | None:
        return self._edges.get((component, component))

    def out_edges(self, component: str) -> list[TagEdge]:
        """Edges leaving ``component`` (excluding its self-loop)."""
        self._require(component)
        return [
            e for e in self._edges.values() if e.src == component and not e.is_self_loop
        ]

    def in_edges(self, component: str) -> list[TagEdge]:
        """Edges entering ``component`` (excluding its self-loop)."""
        self._require(component)
        return [
            e for e in self._edges.values() if e.dst == component and not e.is_self_loop
        ]

    def iter_edges(self) -> Iterator[TagEdge]:
        return iter(self._edges.values())

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    def per_vm_demand(self, component: str) -> tuple[float, float]:
        """Worst-case per-VM ``(out, in)`` demand of one VM in ``component``.

        This is the bandwidth one isolated VM of the tier can require on its
        server uplink: the sum of its send guarantees plus its self-loop for
        the outgoing direction, and symmetrically for incoming.
        """
        return self.derived(_per_vm_demand, component)

    def mean_per_vm_demand(self) -> float:
        """Average per-VM demand, ``max(out, in)`` averaged across all VMs.

        Used by the B_max scaling of §5.1 and by the opportunistic-HA
        desirability test of §4.5.
        """
        return self.derived(_mean_per_vm_demand)

    def edge_aggregate(self, edge: TagEdge) -> float:
        """Total guaranteed bandwidth of one edge, ``B_(u->v)`` (paper §3).

        ``min(S*N_u, R*N_v)``: aggregate traffic from u to v cannot exceed
        either side's total.  For a self-loop the aggregate is ``N*SR/2``
        (each VM both sends and receives at SR, every byte counted once).
        External components without a size impose no cap on their side.
        """
        if edge.is_self_loop:
            size = self._require(edge.src).size or 0
            return size * edge.send / 2.0
        src_size = self._require(edge.src).size
        dst_size = self._require(edge.dst).size
        sent = math.inf if src_size is None else edge.send * src_size
        received = math.inf if dst_size is None else edge.recv * dst_size
        total = min(sent, received)
        return 0.0 if total is math.inf else total

    @property
    def total_bandwidth(self) -> float:
        """Sum of aggregate guarantees over all edges (tenant BW metric)."""
        total = 0  # not sum(): compensated from Python 3.12, totals are pinned
        for edge in self.iter_edges():
            total += self.edge_aggregate(edge)
        return total

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "Tag":
        """Return a copy with every guarantee multiplied by ``factor``."""
        if not math.isfinite(factor) or factor < 0:
            raise InvalidGuaranteeError(f"scale factor must be >= 0, got {factor!r}")
        copy = Tag(self.name)
        copy._components = dict(self._components)
        copy._edges = {key: e.scaled(factor) for key, e in self._edges.items()}
        return copy

    def copy(self) -> "Tag":
        return self.scaled(1.0)

    # ------------------------------------------------------------------
    # special cases
    # ------------------------------------------------------------------
    @classmethod
    def hose(cls, name: str, size: int, bandwidth: float) -> "Tag":
        """The hose model: a single component with a self-loop (§3)."""
        tag = cls(name)
        tag.add_component("all", size=size)
        tag.add_self_loop("all", bandwidth)
        return tag

    @classmethod
    def pipes(
        cls, name: str, demands: Iterable[tuple[str, str, float]]
    ) -> "Tag":
        """The pipe model: one single-VM component per endpoint, no loops.

        ``demands`` is an iterable of ``(src_vm, dst_vm, mbps)`` triples.
        """
        tag = cls(name)
        for src, dst, mbps in demands:
            if not tag.has_component(src):
                tag.add_component(src, size=1)
            if not tag.has_component(dst):
                tag.add_component(dst, size=1)
            existing = tag.edge(src, dst)
            if existing is not None:
                raise DuplicateEdgeError(f"pipe {src!r}->{dst!r} listed twice")
            tag.add_edge(src, dst, send=mbps, recv=mbps)
        return tag

    def is_hose(self) -> bool:
        """True when this TAG is exactly a (single) hose model."""
        internals = self.internal_components()
        return (
            len(internals) == 1
            and not self.external_components()
            and len(self._edges) == 1
            and self.self_loop(internals[0].name) is not None
        )

    def is_pipe(self) -> bool:
        """True when this TAG is exactly a pipe model."""
        internals = self.internal_components()
        if not internals or any(c.size != 1 for c in internals):
            return False
        return all(not e.is_self_loop for e in self._edges.values())

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tag({self.name!r}, tiers={self.num_tiers}, vms={self.size}, "
            f"edges={len(self._edges)})"
        )


# Builders for Tag.derived: the tag's own derived quantities.
def _tier_sizes(tag: Tag) -> dict[str, int]:
    return {c.name: c.size for c in tag._components.values() if not c.external}


def _size(tag: Tag) -> int:
    return sum(tag.derived(_tier_sizes).values())


def _per_vm_demand(tag: Tag, component: str) -> tuple[float, float]:
    # Not sum(): compensated from Python 3.12, and these totals feed
    # placement decisions.  Left to right from int 0, as sum() was.
    out = into = 0
    for edge in tag.out_edges(component):
        out += edge.send
    for edge in tag.in_edges(component):
        into += edge.recv
    loop = tag.self_loop(component)
    if loop is not None:
        out += loop.send
        into += loop.recv
    return out, into


def _mean_per_vm_demand(tag: Tag) -> float:
    total = 0.0
    for name, size in tag.derived(_tier_sizes).items():
        out, into = tag.per_vm_demand(name)
        total += max(out, into) * size
    return total / tag.size if tag.size else 0.0
