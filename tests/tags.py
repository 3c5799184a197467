"""Tenant graphs that only the tests build.

The hose and pipe models are special cases of a TAG (paper §3): one
component with a self-loop, and one single-VM component per endpoint
with no loops.  The library places pools of full TAGs, so these two
shapes are built here.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.tag import Tag


def hose_tag(name: str, size: int, bandwidth: float) -> Tag:
    """The hose model: one component ``"all"`` with a self-loop."""
    tag = Tag(name)
    tag.add_component("all", size=size)
    tag.add_self_loop("all", bandwidth)
    return tag


def pipe_tag(name: str, demands: Iterable[tuple[str, str, float]]) -> Tag:
    """The pipe model over ``(src_vm, dst_vm, mbps)`` triples.

    A pipe listed twice raises ``DuplicateEdgeError``.
    """
    tag = Tag(name)
    for src, dst, mbps in demands:
        for vm in (src, dst):
            if vm not in tag.components:
                tag.add_component(vm, size=1)
        tag.add_edge(src, dst, send=mbps, recv=mbps)
    return tag
