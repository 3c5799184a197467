"""Fig. 7: rejection rates vs B_max at two load levels, CM vs OVOC.

"(a) Load = 50%" and "(b) Load = 90%": sweeping the per-VM bandwidth
scale B_max from 400 to 1200 Mbps, plotting rejected-bandwidth and
rejected-VM fractions.  The paper's headline: "for some B_max, CM can
deploy almost all requests while OVOC rejects up to 40% of bandwidth
requests."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import Engine, Scenario, ScenarioResult, Variant, registry
from repro.experiments._table import Table
from repro.simulation.metrics import RunMetrics

__all__ = ["run", "SCENARIO", "DEFAULT_BMAX_VALUES"]

DEFAULT_BMAX_VALUES = (400.0, 600.0, 800.0, 1000.0, 1200.0)

SCENARIO = Scenario(
    name="fig07",
    title="Fig. 7 — rejection rates vs B_max at 50% and 90% load",
    kind="rejection",
    variants=(Variant("cm"), Variant("ovoc")),
    loads=(0.5, 0.9),
    bmaxes=DEFAULT_BMAX_VALUES,
)


@dataclass(frozen=True)
class SweepPoint:
    bmax: float
    load: float
    algorithm: str
    metrics: RunMetrics


def _points(result: ScenarioResult) -> list[SweepPoint]:
    return [
        SweepPoint(r.trial.bmax, r.trial.load, r.trial.variant.name, r.payload)
        for r in result
    ]


def run(
    *,
    loads: tuple[float, ...] = (0.5, 0.9),
    bmax_values: tuple[float, ...] = DEFAULT_BMAX_VALUES,
    pods: int = 2,
    arrivals: int = 600,
    seed: int = 0,
    algorithms: tuple[str, ...] = ("cm", "ovoc"),
    n_jobs: int = 1,
) -> list[SweepPoint]:
    scenario = SCENARIO.override(
        loads=loads,
        bmaxes=bmax_values,
        pods=pods,
        arrivals=arrivals,
        seeds=(seed,),
        variants=tuple(Variant(a) for a in algorithms),
    )
    return _points(Engine(n_jobs=n_jobs).run(scenario))


def to_table(points: list[SweepPoint]) -> Table:
    table = Table(
        "Fig. 7 — rejection rates (%) vs B_max",
        ("load", "bmax", "algorithm", "BW rejected", "VM rejected", "tenants rejected"),
    )
    for p in points:
        table.add(
            f"{p.load:.0%}",
            f"{p.bmax:.0f}",
            p.algorithm,
            f"{p.metrics.bw_rejection_rate:.1%}",
            f"{p.metrics.vm_rejection_rate:.1%}",
            f"{p.metrics.tenant_rejection_rate:.1%}",
        )
    return table


def present(result: ScenarioResult) -> None:
    to_table(_points(result)).show()
    # Seed-replicated grids additionally get mean ± bootstrap CI rows.
    from repro.results.present import seed_replicated_summary

    summary = seed_replicated_summary(
        result, metric="bw_rejection_rate", axis="bmax"
    )
    if summary:
        print(summary)


registry.register(SCENARIO, present, aliases=("fig7",))
