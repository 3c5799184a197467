"""Fig. 10: micro-benchmark of the CM subroutines (the paper's ablation).

Deactivates Coloc and Balance one at a time: "Colocation is clearly the
main factor in accepting more resource requests but Balance also
contributes ... Even without Coloc, the Balance-only approach performed
close to OVOC."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import Engine, Scenario, ScenarioResult, Variant, registry
from repro.experiments._table import Table
from repro.simulation.metrics import RunMetrics

__all__ = ["run", "SCENARIO", "VARIANTS"]

VARIANTS = ("cm", "cm-coloc-only", "cm-balance-only", "ovoc")
_LABELS = {
    "cm": "Coloc+Balance",
    "cm-coloc-only": "Coloc",
    "cm-balance-only": "Balance",
    "ovoc": "OVOC",
}

SCENARIO = Scenario(
    name="fig10",
    title="Fig. 10 — CM subroutine ablation",
    kind="rejection",
    variants=tuple(Variant(v) for v in VARIANTS),
    loads=(0.8,),
    bmaxes=(800.0,),
)


@dataclass(frozen=True)
class AblationPoint:
    variant: str
    label: str
    metrics: RunMetrics


def _points(result: ScenarioResult) -> list[AblationPoint]:
    return [
        AblationPoint(
            r.trial.variant.name,
            _LABELS.get(r.trial.variant.name, r.trial.variant.name),
            r.payload,
        )
        for r in result
    ]


def run(
    *,
    load: float = 0.8,
    bmax: float = 800.0,
    pods: int = 2,
    arrivals: int = 600,
    seed: int = 0,
    n_jobs: int = 1,
) -> list[AblationPoint]:
    scenario = SCENARIO.override(
        loads=(load,),
        bmaxes=(bmax,),
        pods=pods,
        arrivals=arrivals,
        seeds=(seed,),
    )
    return _points(Engine(n_jobs=n_jobs).run(scenario))


def to_table(points: list[AblationPoint]) -> Table:
    table = Table(
        "Fig. 10 — CM subroutine ablation (rejected bandwidth %)",
        ("variant", "BW rejected", "VM rejected"),
    )
    for p in points:
        table.add(
            p.label,
            f"{p.metrics.bw_rejection_rate:.1%}",
            f"{p.metrics.vm_rejection_rate:.1%}",
        )
    return table


def to_chart(points: list[AblationPoint]) -> str:
    from repro.experiments._chart import bar_chart

    return bar_chart(
        {p.label: p.metrics.bw_rejection_rate * 100 for p in points},
        title="Fig. 10 — rejected bandwidth (%)",
        unit="%",
    )


def present(result: ScenarioResult) -> None:
    points = _points(result)
    to_table(points).show()
    print(to_chart(points))


registry.register(SCENARIO, present)
