"""Fig. 11: impact of guaranteeing worst-case survivability (WCS).

Sweeps the required server-level WCS over {0, 25, 50, 75}% for CM+HA and
OVOC+HA.  Claims: (a) both algorithms achieve at least the required WCS,
with CM+HA's *mean* WCS higher; (b) rejected bandwidth grows only
slightly with the requirement (bandwidth is not the bottleneck at the
server level).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import Engine, Scenario, ScenarioResult, Variant, registry
from repro.experiments._table import Table
from repro.placement.ha import HaPolicy
from repro.simulation.metrics import RunMetrics

__all__ = ["run", "SCENARIO", "DEFAULT_RWCS"]

DEFAULT_RWCS = (0.0, 0.25, 0.5, 0.75)


def _variants(
    required_values: tuple[float, ...],
    algorithms: tuple[str, ...],
    laa_level: int,
) -> tuple[Variant, ...]:
    return tuple(
        Variant(
            f"{algorithm}@{required:.0%}",
            algorithm,
            HaPolicy(required_wcs=required, laa_level=laa_level),
        )
        for required in required_values
        for algorithm in algorithms
    )


SCENARIO = Scenario(
    name="fig11",
    title="Fig. 11 — guaranteeing WCS at the server level",
    kind="rejection",
    variants=_variants(DEFAULT_RWCS, ("cm", "ovoc"), laa_level=0),
    loads=(0.7,),
    bmaxes=(800.0,),
)


@dataclass(frozen=True)
class WcsPoint:
    required_wcs: float
    algorithm: str
    metrics: RunMetrics


def _points(result: ScenarioResult) -> list[WcsPoint]:
    return [
        WcsPoint(
            r.trial.variant.ha.required_wcs if r.trial.variant.ha else 0.0,
            r.trial.variant.placer,
            r.payload,
        )
        for r in result
    ]


def run(
    *,
    required_values: tuple[float, ...] = DEFAULT_RWCS,
    load: float = 0.7,
    bmax: float = 800.0,
    pods: int = 2,
    arrivals: int = 600,
    seed: int = 0,
    laa_level: int = 0,
    algorithms: tuple[str, ...] = ("cm", "ovoc"),
    n_jobs: int = 1,
) -> list[WcsPoint]:
    scenario = SCENARIO.override(
        variants=_variants(tuple(required_values), tuple(algorithms), laa_level),
        loads=(load,),
        bmaxes=(bmax,),
        pods=pods,
        arrivals=arrivals,
        seeds=(seed,),
        laa_level=laa_level,
    )
    return _points(Engine(n_jobs=n_jobs).run(scenario))


def to_table(points: list[WcsPoint]) -> Table:
    table = Table(
        "Fig. 11 — guaranteeing WCS at the server level",
        (
            "required WCS",
            "algorithm",
            "mean WCS",
            "min WCS",
            "BW rejected",
            "slot util",
        ),
    )
    for p in points:
        table.add(
            f"{p.required_wcs:.0%}",
            "CM+HA" if p.algorithm == "cm" else "OVOC+HA",
            f"{p.metrics.wcs.mean:.1%}",
            f"{p.metrics.wcs.minimum:.1%}",
            f"{p.metrics.bw_rejection_rate:.1%}",
            # §4.5: "guaranteeing WCS may decrease datacenter utilization".
            f"{p.metrics.mean_slot_utilization:.1%}",
        )
    return table


def present(result: ScenarioResult) -> None:
    to_table(_points(result)).show()


registry.register(SCENARIO, present)
