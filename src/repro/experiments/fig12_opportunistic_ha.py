"""Fig. 12: default CM vs guaranteed HA vs opportunistic HA.

Across B_max: CM (no HA), CM+HA (RWCS = 50% at server level) and
CM+oppHA.  Claims: opportunistic HA achieves mean WCS comparable to the
guarantee while keeping rejected bandwidth as low as default CM; being
non-guaranteed, its per-component WCS can reach zero (error bars).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import Engine, Scenario, ScenarioResult, Variant, registry
from repro.experiments._table import Table
from repro.placement.ha import HaPolicy
from repro.simulation.metrics import RunMetrics

__all__ = ["run", "SCENARIO", "MODES"]

MODES = ("cm", "cm+ha", "cm+oppha")

_VARIANTS = (
    Variant("cm", "cm"),
    Variant("cm+ha", "cm", HaPolicy(required_wcs=0.5, laa_level=0)),
    Variant("cm+oppha", "cm", HaPolicy(opportunistic=True, laa_level=0)),
)

SCENARIO = Scenario(
    name="fig12",
    title="Fig. 12 — HA mechanisms across B_max",
    kind="rejection",
    variants=_VARIANTS,
    loads=(0.7,),
    bmaxes=(400.0, 800.0, 1200.0),
)


@dataclass(frozen=True)
class HaPoint:
    bmax: float
    mode: str
    metrics: RunMetrics


def _points(result: ScenarioResult) -> list[HaPoint]:
    return [
        HaPoint(r.trial.bmax, r.trial.variant.name, r.payload) for r in result
    ]


def run(
    *,
    bmax_values: tuple[float, ...] = (400.0, 800.0, 1200.0),
    load: float = 0.7,
    pods: int = 2,
    arrivals: int = 600,
    seed: int = 0,
    n_jobs: int = 1,
) -> list[HaPoint]:
    scenario = SCENARIO.override(
        bmaxes=bmax_values,
        loads=(load,),
        pods=pods,
        arrivals=arrivals,
        seeds=(seed,),
    )
    return _points(Engine(n_jobs=n_jobs).run(scenario))


def to_table(points: list[HaPoint]) -> Table:
    table = Table(
        "Fig. 12 — HA mechanisms across B_max",
        ("bmax", "mode", "BW rejected", "mean WCS", "min WCS", "max WCS"),
    )
    for p in points:
        table.add(
            f"{p.bmax:.0f}",
            p.mode,
            f"{p.metrics.bw_rejection_rate:.1%}",
            f"{p.metrics.wcs.mean:.1%}",
            f"{p.metrics.wcs.minimum:.1%}",
            f"{p.metrics.wcs.maximum:.1%}",
        )
    return table


def present(result: ScenarioResult) -> None:
    to_table(_points(result)).show()


registry.register(SCENARIO, present)
