"""The (generalized) hose model baseline (paper §2.2).

In the hose model every VM is attached to one central virtual switch by a
dedicated link with a minimum guarantee.  The *generalized* hose allows a
different guarantee per VM; Oktopus' Virtual Cluster (VC) is the
homogeneous special case ``<N, B>``.

When a tenant that is really structured (a TAG) is forced into the hose
abstraction, every VM's hose guarantee must cover the sum of all of its
per-edge guarantees — the model cannot distinguish destinations.  That
aggregation is exactly the inefficiency paper §2.2 and Fig. 2 describe, and
these functions reproduce it so experiments can quantify the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.bandwidth import BandwidthDemand
from repro.core.tag import Tag
from repro.errors import ModelError

__all__ = ["HoseModel", "hose_from_tag", "hose_uplink_requirement"]


@dataclass(frozen=True)
class HoseModel:
    """A generalized hose: per-component per-VM ``(out, in)`` guarantees.

    ``guarantees`` maps component name -> per-VM hose guarantee pair; VMs of
    one component are interchangeable, so guarantees are stored per tier.
    ``sizes`` maps component name -> number of VMs.
    """

    sizes: Mapping[str, int]
    guarantees: Mapping[str, BandwidthDemand]

    def __post_init__(self) -> None:
        if set(self.sizes) != set(self.guarantees):
            raise ModelError("hose sizes and guarantees must cover the same tiers")


def hose_from_tag(tag: Tag) -> HoseModel:
    """Collapse a TAG into its hose-model representation (Fig. 2(b)).

    Each VM's hose guarantee is the sum of all its per-edge guarantees: the
    hose cannot tell a DB-DB byte from a logic-DB byte, so it must cover
    both at once.
    """
    sizes: dict[str, int] = {}
    guarantees: dict[str, BandwidthDemand] = {}
    for component in tag.internal_components():
        out, into = tag.per_vm_demand(component.name)
        assert component.size is not None
        sizes[component.name] = component.size
        guarantees[component.name] = BandwidthDemand(out, into)
    return HoseModel(sizes=sizes, guarantees=guarantees)


def hose_uplink_requirement(
    model: HoseModel, inside: Mapping[str, int]
) -> BandwidthDemand:
    """Bandwidth a hose model needs on a subtree uplink.

    All hoses meet at one virtual switch, so the requirement in the
    outgoing direction is ``min(sum of inside send hoses, sum of outside
    receive hoses)`` — the classic VC formula generalized to heterogeneous
    guarantees.
    """
    send_inside = recv_inside = 0.0
    send_outside = recv_outside = 0.0
    for tier, size in model.sizes.items():
        count = inside.get(tier, 0)
        if count < 0 or count > size:
            raise ValueError(f"inside count {count} for {tier!r} out of [0, {size}]")
        pair = model.guarantees[tier]
        send_inside += count * pair.out
        recv_inside += count * pair.into
        send_outside += (size - count) * pair.out
        recv_outside += (size - count) * pair.into
    return BandwidthDemand(
        out=min(send_inside, recv_outside), into=min(send_outside, recv_inside)
    )
