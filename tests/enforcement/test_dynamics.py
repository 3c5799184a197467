"""Tests for the time-stepped ElasticSwitch control loop."""

from __future__ import annotations

import math

import pytest

from repro.core.tag import Tag
from repro.enforcement.dynamics import ElasticSwitchDynamics, PairFlow
from repro.enforcement.elasticswitch import solve_enforcement
from repro.errors import EnforcementError

# Mbps: the probe keeps the rates oscillating around the fixed point.
CONVERGENCE_TOLERANCE = 15.0


def fig13_tag(guarantee: float = 450.0) -> Tag:
    tag = Tag("t")
    tag.add_component("C1", size=1)
    tag.add_component("C2", size=6)
    tag.add_edge("C1", "C2", send=guarantee, recv=guarantee)
    tag.add_self_loop("C2", guarantee)
    return tag


def make_loop(mode: str = "tag") -> ElasticSwitchDynamics:
    return ElasticSwitchDynamics(
        fig13_tag(), {"bn": 1000.0}, mode=mode
    )


def run(loop: ElasticSwitchDynamics, periods: int) -> list:
    return [loop.step() for _ in range(periods)]


def run_until_stable(loop: ElasticSwitchDynamics) -> list:
    """Step until no rate moves by more than the tolerance."""
    samples = [loop.step()]
    for _ in range(200 - 1):
        sample = loop.step()
        previous = samples[-1]
        samples.append(sample)
        if len(sample.rates) == len(previous.rates) and all(
            abs(a - b) <= CONVERGENCE_TOLERANCE
            for a, b in zip(sample.rates, previous.rates)
        ):
            break
    return samples


def steady_state(loop: ElasticSwitchDynamics):
    """The static fixed point of the loop's current flows."""
    return solve_enforcement(loop._ensure_problem())


class TestConvergence:
    def test_single_flow_converges_to_capacity(self):
        loop = make_loop()
        loop.add_flow(PairFlow("C1", 0, "C2", 0, links=("bn",)))
        samples = run_until_stable(loop)
        assert samples[-1].rates[0] == pytest.approx(1000.0, abs=20.0)

    def test_converges_to_static_fixed_point(self):
        loop = make_loop()
        loop.add_flow(PairFlow("C1", 0, "C2", 0, links=("bn",)))
        for sender in range(3):
            loop.add_flow(
                PairFlow("C2", sender + 1, "C2", 0, links=("bn",))
            )
        samples = run_until_stable(loop)
        static = steady_state(loop)
        # The probe keeps a small oscillation around the fixed point.
        for dynamic, fixed in zip(samples[-1].rates, static.rates):
            assert dynamic == pytest.approx(fixed, abs=40.0)

    def test_guarantee_respected_every_period_after_bootstrap(self):
        loop = make_loop()
        loop.add_flow(PairFlow("C1", 0, "C2", 0, links=("bn",)))
        loop.add_flow(PairFlow("C2", 1, "C2", 0, links=("bn",)))
        loop.add_flow(PairFlow("C2", 2, "C2", 0, links=("bn",)))
        for sample in run(loop, 30)[1:]:
            # The trunk guarantee (450) is honoured in every period.
            assert sample.rates[0] >= sample.guarantees[0] - 1e-6

    def test_new_flow_steals_only_spare(self):
        """When C2 senders join, X's rate falls from 1000 but never
        below its 450 guarantee — the Fig. 13 dynamics."""
        loop = make_loop()
        loop.add_flow(PairFlow("C1", 0, "C2", 0, links=("bn",)))
        run_until_stable(loop)
        loop.add_flow(PairFlow("C2", 1, "C2", 0, links=("bn",)))
        loop.add_flow(PairFlow("C2", 2, "C2", 0, links=("bn",)))
        samples = run_until_stable(loop)
        final = samples[-1]
        assert final.rates[0] >= 450.0 - 1e-6
        assert final.rates[0] < 1000.0
        assert sum(final.rates) == pytest.approx(1000.0, abs=60.0)

    def test_hose_mode_converges_to_degraded_share(self):
        loop = make_loop(mode="hose")
        loop.add_flow(PairFlow("C1", 0, "C2", 0, links=("bn",)))
        for sender in range(4):
            loop.add_flow(PairFlow("C2", sender + 1, "C2", 0, links=("bn",)))
        samples = run_until_stable(loop)
        # 900/5 guarantee + 100/5 spare = 200: X starves below 450.
        assert samples[-1].rates[0] == pytest.approx(200.0, abs=25.0)

    def test_finite_demand_caps_rate(self):
        loop = make_loop()
        loop.add_flow(
            PairFlow("C1", 0, "C2", 0, links=("bn",), demand=120.0)
        )
        samples = run_until_stable(loop)
        assert samples[-1].rates[0] == pytest.approx(120.0, abs=2.0)

    def test_limits_bounded_by_demand_and_guarantee(self):
        loop = make_loop()
        loop.add_flow(PairFlow("C1", 0, "C2", 0, links=("bn",), demand=600.0))
        loop.add_flow(PairFlow("C2", 1, "C2", 0, links=("bn",)))
        for sample in run(loop, 40)[1:]:
            for i, flow in enumerate(loop.flows):
                assert sample.limits[i] >= sample.guarantees[i] - 1e-9
                if math.isfinite(flow.demand):
                    assert sample.limits[i] <= flow.demand + 1e-9

    def test_unknown_link_rejected(self):
        loop = make_loop()
        with pytest.raises(EnforcementError):
            loop.add_flow(PairFlow("C1", 0, "C2", 0, links=("missing",)))

    def test_empty_loop_steps(self):
        loop = make_loop()
        sample = loop.step()
        assert sample.rates == ()
