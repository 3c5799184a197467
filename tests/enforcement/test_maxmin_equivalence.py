"""Randomized equivalence: vectorized max-min kernel vs the seed scalar.

``reference_maxmin`` below is a line-for-line reimplementation of the
pre-PR-5 scalar kernel (per-round dict-based link incidence, Python-set
freezing); ``tests/seed_parity.json`` pins that kernel's own output at
scale.  The property tests drive it in lockstep with the live vectorized
:func:`repro.enforcement.maxmin.maxmin_rates` over randomized flow sets
and assert **bit-identical** rates (no tolerance): the vectorized rounds
perform element-for-element the same float operations, so any drift is
a real semantic divergence.

Covered regimes: zero-capacity links, zero-limit flows, link-less
flows, duplicate link crossings (multiplicity), epsilon tie-freezing,
numerical stalls, unbounded-system errors, and the Fig. 13 hose shape.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.constants import CONVERGENCE_EPSILON
from repro.enforcement.maxmin import FlowSpec, maxmin_rates
from repro.errors import EnforcementError


def reference_maxmin(flows, capacities):
    """The seed scalar progressive-filling kernel (pre-refactor)."""
    for flow in flows:
        for link in flow.links:
            if link not in capacities:
                raise EnforcementError(f"unknown link {link!r}")
    for link, capacity in capacities.items():
        if capacity < 0:
            raise EnforcementError(f"negative capacity on {link!r}")

    rates = [0.0] * len(flows)
    residual = dict(capacities)
    for index, flow in enumerate(flows):
        if not flow.links and math.isfinite(flow.limit):
            rates[index] = flow.limit
    active = {i for i, f in enumerate(flows) if f.limit > 0.0 and f.links}

    while active:
        link_users: dict = {}
        for index in active:
            for link in flows[index].links:
                link_users[link] = link_users.get(link, 0) + 1
        increment = math.inf
        for link, users in link_users.items():
            if users:
                increment = min(increment, residual[link] / users)
        for index in active:
            increment = min(increment, flows[index].limit - rates[index])
        if math.isinf(increment):
            raise EnforcementError("unbounded")
        increment = max(0.0, increment)
        for index in active:
            rates[index] += increment
        for link in link_users:
            residual[link] -= increment * link_users[link]
        frozen = set()
        for link, users in link_users.items():
            if residual[link] <= CONVERGENCE_EPSILON:
                for index in active:
                    if link in flows[index].links:
                        frozen.add(index)
        for index in active:
            if flows[index].limit - rates[index] <= CONVERGENCE_EPSILON:
                frozen.add(index)
        if not frozen:
            frozen = set(active)
        active -= frozen
    return rates


def random_problem(rng: random.Random):
    n_links = rng.randint(1, 9)
    links = [f"l{i}" for i in range(n_links)]
    capacities = {
        link: rng.choice([0.0, 1.0, 5.0, 10.0, 50.0, rng.uniform(0.0, 40.0)])
        for link in links
    }
    flows = []
    for _ in range(rng.randint(1, 14)):
        crossed = rng.randint(0, min(4, n_links))
        chosen = tuple(rng.sample(links, crossed)) if crossed else ()
        if chosen and rng.random() < 0.3:
            # Duplicate crossing: the flow consumes two shares of one link.
            chosen = chosen + (chosen[0],)
        limit = rng.choice([math.inf, 0.0, rng.uniform(0.0, 30.0)])
        if not chosen and math.isinf(limit):
            limit = rng.uniform(0.0, 30.0)
        flows.append(FlowSpec(chosen, limit))
    return flows, capacities


@pytest.mark.parametrize("seed", range(12))
def test_randomized_flows_match_reference_bitwise(seed):
    rng = random.Random(seed)
    for _ in range(60):
        flows, capacities = random_problem(rng)
        try:
            expected = reference_maxmin(flows, capacities)
        except EnforcementError:
            with pytest.raises(EnforcementError):
                maxmin_rates(flows, capacities)
            continue
        got = maxmin_rates(flows, capacities)
        # Bit-identical, not approx: both kernels must perform the same
        # float ops in the same order.
        assert got == expected


def test_epsilon_tie_freezing_matches():
    # Two links filling at exactly the same round; all crossing flows
    # freeze together, within CONVERGENCE_EPSILON.
    flows = [FlowSpec(("a",)), FlowSpec(("b",)), FlowSpec(("a", "b"))]
    capacities = {"a": 30.0, "b": 30.0}
    assert maxmin_rates(flows, capacities) == reference_maxmin(flows, capacities)


def test_near_epsilon_residual_freezes_identically():
    # A residual that lands within epsilon of zero (but not exactly)
    # must freeze the same flows in the same round.
    flows = [FlowSpec(("a",), limit=10.0 - CONVERGENCE_EPSILON / 2),
             FlowSpec(("a",))]
    capacities = {"a": 20.0}
    assert maxmin_rates(flows, capacities) == reference_maxmin(flows, capacities)


def test_zero_capacity_and_zero_limit_mix():
    flows = [
        FlowSpec(("dead",)),
        FlowSpec(("live",), limit=0.0),
        FlowSpec(("live",)),
        FlowSpec((), limit=3.5),
    ]
    capacities = {"dead": 0.0, "live": 12.0}
    expected = reference_maxmin(flows, capacities)
    assert maxmin_rates(flows, capacities) == expected
    assert expected == [0.0, 0.0, 12.0, 3.5]


def test_duplicate_crossing_consumes_two_shares():
    # One flow crossing the link twice gets half the rate of a single
    # crosser in both implementations.
    flows = [FlowSpec(("l", "l")), FlowSpec(("l",))]
    capacities = {"l": 90.0}
    expected = reference_maxmin(flows, capacities)
    assert maxmin_rates(flows, capacities) == expected
    assert expected == pytest.approx([30.0, 30.0])


def test_stall_freezes_everything_in_both():
    # A link already within epsilon of empty stalls the first round.
    flows = [FlowSpec(("l",)), FlowSpec(("l",))]
    capacities = {"l": CONVERGENCE_EPSILON / 2}
    assert maxmin_rates(flows, capacities) == reference_maxmin(flows, capacities)


def test_unbounded_raises_in_both():
    flows = [FlowSpec(("l",))]
    capacities = {"l": math.inf}
    with pytest.raises(EnforcementError):
        reference_maxmin(flows, capacities)
    with pytest.raises(EnforcementError):
        maxmin_rates(flows, capacities)


def test_fig13_shape_matches_at_scale():
    guarantee = 450.0
    capacities = {"rcv": guarantee, "phys": 900.0}
    flows = []
    for sender in range(120):
        capacities[f"s{sender}"] = guarantee
        flows.append(FlowSpec((f"s{sender}", "rcv", "phys")))
    assert maxmin_rates(flows, capacities) == reference_maxmin(flows, capacities)
