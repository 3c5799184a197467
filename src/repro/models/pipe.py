"""The pipe model baseline (paper §2.2): per-VM-pair guarantees.

Pipes capture exact pairwise demands but are rigid (no statistical
multiplexing across destinations) and tedious (O(N^2) values).  The paper
evaluates SecondNet on "idealized" pipe models obtained by dividing each
TAG hose and trunk guarantee uniformly across the corresponding VM pairs;
:func:`pipes_from_tag` implements that conversion.  VMs are identified as
``"<tier>:<index>"`` with indices starting at 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.tag import Tag
from repro.errors import ModelError

__all__ = [
    "Pipe",
    "PipeSet",
    "pipe_expansion",
    "pipe_tag_from_tag",
    "pipes_from_tag",
    "vm_name",
]


def vm_name(tier: str, index: int) -> str:
    """Canonical VM identifier used by the pipe model and SecondNet placer."""
    return f"{tier}:{index}"


@dataclass(frozen=True, slots=True)
class Pipe:
    """A directed VM-to-VM bandwidth guarantee."""

    src: str
    dst: str
    bandwidth: float

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ModelError(f"pipe endpoints must differ, got {self.src!r} twice")
        if self.bandwidth < 0:
            raise ModelError(f"pipe bandwidth must be >= 0, got {self.bandwidth!r}")


@dataclass(frozen=True)
class PipeSet:
    """An immutable collection of pipes over a fixed set of VMs."""

    name: str
    vms: tuple[str, ...]
    pipes: tuple[Pipe, ...]

    def __post_init__(self) -> None:
        known = set(self.vms)
        for pipe in self.pipes:
            if pipe.src not in known or pipe.dst not in known:
                raise ModelError(f"pipe {pipe} references an unknown VM")

    def iter_pipes(self) -> Iterator[Pipe]:
        return iter(self.pipes)


def pipe_expansion(
    tag: Tag,
) -> tuple[tuple[str, ...], list[tuple[list[str], list[str], float, bool]]]:
    """Flattened pipe expansion plan of a TAG: the VM names plus one
    ``(src_tier, dst_tier, per_pair, self_loop)`` row per internal edge.

    This is the O(edges) half of :func:`pipes_from_tag`: each trunk
    aggregate ``B(u->v) = min(S*N_u, R*N_v)`` divided evenly over the
    ``N_u * N_v`` ordered pairs, each self-loop hose letting a VM send
    ``SR`` split evenly over its ``N-1`` peers.  External components have
    no placeable VMs and are skipped (pipes require concrete endpoints),
    as are self-loops on single-VM tiers (no peers to send to).  The
    quadratic per-pair expansion of a row is left to the consumer —
    :func:`pipes_from_tag` materializes ``Pipe`` objects from it, while
    the SecondNet placer expands the rows itself (``_pipe_plan``) and
    never builds the pipes at all.
    """
    vms: list[str] = []
    names: dict[str, list[str]] = {}
    for component in tag.internal_components():
        assert component.size is not None
        tier = [vm_name(component.name, i) for i in range(component.size)]
        names[component.name] = tier
        vms.extend(tier)
    plans: list[tuple[list[str], list[str], float, bool]] = []
    for edge in tag.iter_edges():
        src = tag.component(edge.src)
        dst = tag.component(edge.dst)
        if src.external or dst.external:
            continue
        assert src.size is not None and dst.size is not None
        if edge.is_self_loop:
            if src.size < 2:
                continue
            tier = names[src.name]
            plans.append((tier, tier, edge.send / (src.size - 1), True))
        else:
            aggregate = tag.edge_aggregate(edge)
            per_pair = aggregate / (src.size * dst.size)
            plans.append((names[src.name], names[dst.name], per_pair, False))
    return tuple(vms), plans


def pipes_from_tag(tag: Tag) -> PipeSet:
    """Idealized pipe model of a TAG (§5.1, SecondNet comparison).

    Materializes the :func:`pipe_expansion` plan as concrete ``Pipe``
    objects.  The expansion is quadratic per edge (SecondNet places
    tenants with hundreds of thousands of pipes), so the bulk loops
    build each frozen Pipe directly: endpoints are distinct by
    construction and the per-pair rates non-negative (TAG guarantees
    are), making the per-instance re-validation of Pipe()/PipeSet()
    redundant here.
    """
    vms, plans = pipe_expansion(tag)
    pipes: list[Pipe] = []
    append = pipes.append
    new = Pipe.__new__
    fill = object.__setattr__
    for src_tier, dst_tier, per_pair, self_loop in plans:
        if self_loop:
            for i, src_name in enumerate(src_tier):
                for j, dst_name in enumerate(dst_tier):
                    if i != j:
                        pipe = new(Pipe)
                        fill(pipe, "src", src_name)
                        fill(pipe, "dst", dst_name)
                        fill(pipe, "bandwidth", per_pair)
                        append(pipe)
        else:
            for src_name in src_tier:
                for dst_name in dst_tier:
                    pipe = new(Pipe)
                    fill(pipe, "src", src_name)
                    fill(pipe, "dst", dst_name)
                    fill(pipe, "bandwidth", per_pair)
                    append(pipe)
    pipe_set = PipeSet.__new__(PipeSet)
    fill(pipe_set, "name", tag.name)
    fill(pipe_set, "vms", vms)
    fill(pipe_set, "pipes", tuple(pipes))
    return pipe_set


def pipe_tag_from_tag(tag: Tag) -> Tag:
    """The idealized pipe model of a TAG, *as a TAG* (§5.1, CM+pipe).

    Pipes are a special case of TAG (one VM per component, no
    self-loops), so CloudMirror can place pipe models directly; the paper
    evaluates exactly this ("we were able to evaluate running CM to
    deploy the idealized bing pipe models").  Pipes between the same pair
    become one edge; pipes in both directions become two directed edges.
    """
    pipes = pipes_from_tag(tag)
    pipe_tag = Tag(f"{tag.name}-pipes")
    for vm in pipes.vms:
        pipe_tag.add_component(vm, size=1)
    for pipe in pipes.iter_pipes():
        existing = pipe_tag.edge(pipe.src, pipe.dst)
        if existing is not None:
            raise ModelError(f"duplicate pipe {pipe.src!r}->{pipe.dst!r}")
        pipe_tag.add_edge(pipe.src, pipe.dst, pipe.bandwidth, pipe.bandwidth)
    return pipe_tag
