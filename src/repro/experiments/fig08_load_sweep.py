"""Fig. 8: rejection rates vs datacenter load at B_max = 800 Mbps.

"OVOC fails to deploy a set of tenants having large slot or bandwidth
demands even at low loads while CM efficiently places most of them."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import Engine, Scenario, ScenarioResult, Variant, registry
from repro.experiments._table import Table
from repro.simulation.metrics import RunMetrics

__all__ = ["run", "SCENARIO", "DEFAULT_LOADS"]

DEFAULT_LOADS = (0.1, 0.3, 0.5, 0.7, 0.9)

SCENARIO = Scenario(
    name="fig08",
    title="Fig. 8 — rejection rates vs load, B_max = 800 Mbps",
    kind="rejection",
    variants=(Variant("cm"), Variant("ovoc")),
    loads=DEFAULT_LOADS,
    bmaxes=(800.0,),
)


@dataclass(frozen=True)
class LoadPoint:
    load: float
    algorithm: str
    metrics: RunMetrics


def _points(result: ScenarioResult) -> list[LoadPoint]:
    return [
        LoadPoint(r.trial.load, r.trial.variant.name, r.payload) for r in result
    ]


def run(
    *,
    loads: tuple[float, ...] = DEFAULT_LOADS,
    bmax: float = 800.0,
    pods: int = 2,
    arrivals: int = 600,
    seed: int = 0,
    algorithms: tuple[str, ...] = ("cm", "ovoc"),
    n_jobs: int = 1,
) -> list[LoadPoint]:
    scenario = SCENARIO.override(
        loads=loads,
        bmaxes=(bmax,),
        pods=pods,
        arrivals=arrivals,
        seeds=(seed,),
        variants=tuple(Variant(a) for a in algorithms),
    )
    return _points(Engine(n_jobs=n_jobs).run(scenario))


def to_table(points: list[LoadPoint]) -> Table:
    table = Table(
        "Fig. 8 — rejection rates (%) vs load, B_max = 800 Mbps",
        ("load", "algorithm", "BW rejected", "VM rejected"),
    )
    for p in points:
        table.add(
            f"{p.load:.0%}",
            p.algorithm,
            f"{p.metrics.bw_rejection_rate:.1%}",
            f"{p.metrics.vm_rejection_rate:.1%}",
        )
    return table


def to_chart(points: list[LoadPoint]) -> str:
    from repro.experiments._chart import line_chart

    series = {}
    for p in points:
        series.setdefault(p.algorithm, []).append(
            (p.load * 100, p.metrics.bw_rejection_rate * 100)
        )
    return line_chart(
        series,
        title="Fig. 8 — rejected bandwidth (%) vs load (%)",
        x_label="load (%)",
    )


def present(result: ScenarioResult) -> None:
    points = _points(result)
    to_table(points).show()
    print(to_chart(points))
    # Seed-replicated grids additionally get mean ± bootstrap CI rows
    # and a banded chart.
    from repro.results.present import seed_replicated_summary

    summary = seed_replicated_summary(
        result, metric="bw_rejection_rate", axis="load"
    )
    if summary:
        print(summary)


registry.register(SCENARIO, present, aliases=("fig8",))
