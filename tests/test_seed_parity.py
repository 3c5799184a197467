"""The seed stack's last recorded verdicts, replayed on the live stack.

``seed_parity.json`` holds outputs only.  It was recorded from the
frozen pre-refactor stack (dict-backed ledger, scalar max-min kernel)
on the last commit that shipped it, for the inputs its before/after
benches compared: ten single-tenant layouts on an empty two-pod
datacenter, and the SHA-256 of eight float vectors — Fig. 13 guarantee
partitioning at growing sender counts in both abstraction modes, the
raw max-min kernel on a parking-lot chain, and the last period of the
ElasticSwitch control loop.  The live stack must reproduce every entry
exactly.  The recording script is in CHANGES.md (PR 18); its input no longer exists,
so an entry changes only when a *decision* is meant to change.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from pathlib import Path

import pytest

from repro.core.tag import Tag
from repro.enforcement.dynamics import ElasticSwitchDynamics
from repro.enforcement.elasticswitch import PairFlow, enforce
from repro.enforcement.maxmin import FlowSpec, maxmin_rates
from repro.placement.base import Placement
from repro.simulation.runner import make_placer
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Ledger
from repro.workloads.patterns import three_tier

_FIXTURE = json.loads(Path(__file__).with_name("seed_parity.json").read_text())
RECORDED = {**_FIXTURE["layouts"], **_FIXTURE["digests"]}


def _digest(*vectors) -> str:
    canonical = tuple(tuple(float(x) for x in vector) for vector in vectors)
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


def _fig13(senders: int, guarantee: float = 450.0):
    """The Fig. 13 TAG and flow set at ``senders`` C2 senders."""
    tag = Tag("fig13")
    tag.add_component("C1", size=1)
    tag.add_component("C2", size=max(2, senders + 1))
    tag.add_edge("C1", "C2", send=guarantee, recv=guarantee)
    tag.add_self_loop("C2", guarantee)
    flows = [PairFlow("C1", 0, "C2", 0, links=("into-Z",))]
    flows += [
        PairFlow("C2", sender + 1, "C2", 0, links=("into-Z",))
        for sender in range(senders)
    ]
    return tag, flows, {"into-Z": 1000.0}


def _place(algorithm: str, vms: str) -> object:
    third = max(1, int(vms) // 3)
    tenant = three_tier(
        f"rt-{vms}", (int(vms) - 2 * third, third, third), b1=200.0, b2=50.0, b3=20.0
    )
    topology = three_level_tree(DatacenterSpec(pods=2))
    result = make_placer(algorithm, Ledger(topology)).place(tenant)
    if not isinstance(result, Placement):
        return "rejected"
    return sorted(
        [server_id, sorted(map(list, counts.items()))]
        for server_id, counts in result.allocation.iter_server_placements()
    )


def _enforce(senders: str, mode: str) -> str:
    tag, flows, capacities = _fig13(int(senders))
    result = enforce(tag, flows, capacities, mode=mode)
    return _digest(result.guarantees, result.rates)


def _maxmin_chain(links: str) -> str:
    # One distinct bottleneck per round: each flow crosses three
    # consecutive links of increasing capacity.
    n = int(links)
    flows = [FlowSpec(tuple(range(i, min(i + 3, n)))) for i in range(n)]
    return _digest(maxmin_rates(flows, {i: 100.0 + 7.0 * i for i in range(n)}))


def _dynamics(senders: str, periods: str) -> str:
    tag, flows, capacities = _fig13(int(senders))
    dynamics = ElasticSwitchDynamics(tag, capacities, mode="tag")
    for flow in flows:
        dynamics.add_flow(flow)
    for _ in range(int(periods)):
        last = dynamics.step()
    return _digest(last.guarantees, last.limits, last.rates)


# An entry is "<case>@<argument>[/<argument>]".
_CASES = {
    "cm": partial(_place, "cm"),
    "ovoc": partial(_place, "ovoc"),
    "secondnet": partial(_place, "secondnet"),
    "enforce": _enforce,
    "maxmin_chain": _maxmin_chain,
    "dynamics": _dynamics,
}


@pytest.mark.parametrize("entry", RECORDED)
def test_live_stack_reproduces_the_seed(entry):
    case, _, arguments = entry.partition("@")
    assert _CASES[case](*arguments.split("/")) == RECORDED[entry]


def test_fixture_holds_both_verdicts():
    assert len(RECORDED) == 18
    assert "rejected" in RECORDED.values()
    assert any(isinstance(layout, list) for layout in RECORDED.values())
