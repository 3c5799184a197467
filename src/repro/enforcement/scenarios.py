"""Testbed scenarios for the enforcement prototype (Figs. 4 and 13).

Both scenarios share one physical shape: several sender VMs, one receiver
VM ``Z`` behind a single bottleneck link.  Senders' access links are
provisioned so the receiver's downlink is the only constraint, exactly as
in the paper's 1 Gbps testbed experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.tag import Tag
from repro.enforcement.elasticswitch import EnforcementResult, PairFlow, enforce

__all__ = ["Fig13Point", "fig13_scenario", "fig4_scenario"]

_BOTTLENECK = "into-Z"


@dataclass(frozen=True)
class Fig13Point:
    """One x-axis point of Fig. 13(b)."""

    senders_in_c2: int
    x_to_z: float
    c2_to_z: float


def fig13_scenario(
    senders_in_c2: int,
    *,
    mode: str = "tag",
    guarantee: float = 450.0,
    bottleneck: float = 1000.0,
    headroom: float = 0.1,
) -> Fig13Point:
    """The Fig. 13 experiment: does intra-C2 traffic crowd out X -> Z?

    Two tiers C1, C2; B1 = B2 = Bin2 = ``guarantee``; VM Z in C2 receives
    TCP traffic from VM X in C1 and from ``senders_in_c2`` VMs of its own
    tier, all through a 1 Gbps bottleneck.
    """
    tag = Tag("fig13")
    tag.add_component("C1", size=1)
    tag.add_component("C2", size=max(2, senders_in_c2 + 1))
    tag.add_edge("C1", "C2", send=guarantee, recv=guarantee)
    tag.add_self_loop("C2", guarantee)

    capacities: dict[object, float] = {_BOTTLENECK: bottleneck}
    flows = [
        PairFlow("C1", 0, "C2", 0, links=(_BOTTLENECK,), demand=math.inf)
    ]
    for sender in range(senders_in_c2):
        flows.append(
            PairFlow(
                "C2", sender + 1, "C2", 0, links=(_BOTTLENECK,), demand=math.inf
            )
        )
    result = enforce(tag, flows, capacities, mode=mode, headroom=headroom)
    x_rate = result.rates[0]
    c2_rate = 0  # not sum(): compensated from Python 3.12, rates are pinned
    for rate in result.rates[1:]:
        c2_rate += rate
    return Fig13Point(senders_in_c2=senders_in_c2, x_to_z=x_rate, c2_to_z=c2_rate)


@dataclass(frozen=True)
class Fig4Outcome:
    """Throughput of the logic VM's two traffic classes under congestion."""

    web_to_logic: float
    db_to_logic: float
    web_guarantee_met: bool


def fig4_scenario(
    *,
    mode: str,
    web_senders: int = 2,
    db_senders: int = 2,
    b1: float = 500.0,
    b2: float = 100.0,
    bottleneck: float = 600.0,
) -> Fig4Outcome:
    """The Fig. 4 motivation: hose cannot protect web -> logic.

    The business-logic VM has guarantees B1 = 500 from the web tier and
    B2 = 100 from the DB tier; its bottleneck is exactly B1 + B2.  Both
    tiers blast at full speed.  With the hose model the 600 Mbps hose is
    split TCP-style across all senders and the web tier cannot reach 500;
    with TAG the two guarantees are isolated.
    """
    tag = Tag("fig4")
    tag.add_component("web", size=web_senders)
    tag.add_component("logic", size=1)
    tag.add_component("db", size=db_senders)
    tag.add_edge("web", "logic", send=b1, recv=b1)
    tag.add_edge("db", "logic", send=b2, recv=b2)

    capacities: dict[object, float] = {_BOTTLENECK: bottleneck}
    flows = [
        PairFlow("web", i, "logic", 0, links=(_BOTTLENECK,), demand=math.inf)
        for i in range(web_senders)
    ] + [
        PairFlow("db", i, "logic", 0, links=(_BOTTLENECK,), demand=math.inf)
        for i in range(db_senders)
    ]
    result = enforce(tag, flows, capacities, mode=mode, headroom=0.0)
    web_rate = 0  # not sum(): compensated from Python 3.12, rates are pinned
    for rate in result.rates[:web_senders]:
        web_rate += rate
    db_rate = 0
    for rate in result.rates[web_senders:]:
        db_rate += rate
    return Fig4Outcome(
        web_to_logic=web_rate,
        db_to_logic=db_rate,
        web_guarantee_met=web_rate >= b1 * 0.99,
    )
