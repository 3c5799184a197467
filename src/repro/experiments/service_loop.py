"""Online-service scenario: a long streaming admission run (ROADMAP #2).

The paper's §5 runs are 10k-arrival batches; an online placement service
instead sees an unbounded arrival stream and must answer every admission
at interactive latency while its bookkeeping stays O(1) in the event
count.  This driver streams a large Poisson (or diurnal) arrival run
through :class:`~repro.simulation.service.ServiceLoop` — cohort-batched
admission over the persistent candidate index — and reports steady-state
admission behaviour plus the loop's own latency quantiles.

The paper figures run the same loop, and its decisions are
bit-identical to a per-event loop at any cohort size (the differential
suite in ``tests/simulation/test_service.py`` pins this); the scenario
exists to observe the *service* — throughput, time-to-place percentiles,
windowed rejection rate — not to change the placement results.
"""

from __future__ import annotations

from repro.engine import Engine, Scenario, ScenarioResult, Variant, registry
from repro.experiments._table import Table

__all__ = ["run", "SCENARIO"]

SCENARIO = Scenario(
    name="service",
    title="Online service — streaming cohort-batched admission",
    kind="service",
    variants=(Variant("cm"), Variant("ovoc")),
    loads=(0.9,),
    bmaxes=(800.0,),
    arrivals=20_000,
    params=(("cohort", 64), ("heartbeat", 4096), ("load_profile", "poisson")),
)


def run(
    *,
    arrivals: int = 20_000,
    load: float = 0.9,
    cohort: int = 64,
    load_profile: str = "poisson",
    pods: int | None = None,
    n_jobs: int = 1,
) -> ScenarioResult:
    scenario = SCENARIO.override(
        arrivals=arrivals,
        loads=(load,),
        pods=pods,
        params=(
            ("cohort", cohort),
            ("heartbeat", 4096),
            ("load_profile", load_profile),
        ),
    )
    return Engine(n_jobs=n_jobs).run(scenario)


def to_table(result: ScenarioResult) -> Table:
    table = Table(
        "Online service — admission stream at steady state",
        (
            "placer",
            "profile",
            "arrivals",
            "accepted",
            "rej rate",
            "window rej",
            "p50 place",
            "p99 place",
            "events/s",
        ),
    )
    for r in result:
        payload = r.payload
        timing = payload["timing"]
        table.add(
            r.trial.variant.name,
            payload["load_profile"],
            payload["arrivals"],
            payload["accepted"],
            f"{payload['rejection_rate']:.1%}",
            f"{payload['windowed_rejection_rate']:.1%}",
            f"{timing['p50_place_ms']:.2f}ms",
            f"{timing['p99_place_ms']:.2f}ms",
            f"{timing['events_per_sec']:,.0f}",
        )
    return table


def present(result: ScenarioResult) -> None:
    to_table(result).show()
    for r in result:
        payload = r.payload
        utilization = payload["utilization"]
        print(
            f"{r.trial.variant.name}: {payload['cohorts']} cohorts "
            f"(max {payload['max_cohort']}), mean slot utilization "
            f"{utilization['mean_slot']:.1%}, "
            f"mean bw utilization {utilization['mean_bw']:.1%}"
        )


registry.register(
    SCENARIO,
    present,
    options=(
        registry.param_option(
            "--load-profile",
            registry.one_of(("poisson", "diurnal")),
            "arrival shape: poisson (flat rate) or diurnal (day/night cycle)",
        ),
        registry.param_option(
            "--cohort", int, "admission batch size (1 = per-event bookkeeping)"
        ),
    ),
)
