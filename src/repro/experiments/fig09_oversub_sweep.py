"""Fig. 9: rejected bandwidth vs topology oversubscription, 16x - 128x.

"CM is resilient to highly bandwidth-constrained network environments
while OVOC is quickly incapable of deploying tenants."  The x-axis is the
end-to-end server-to-core oversubscription; the paper's base topology is
32x (= 4 x 8).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import Engine, Scenario, ScenarioResult, TopologyCase, Variant, registry
from repro.experiments._table import Table
from repro.simulation.metrics import RunMetrics
from repro.topology.builder import DatacenterSpec

__all__ = ["run", "SCENARIO", "DEFAULT_OVERSUB"]

# total -> (tor_oversub, agg_oversub)
DEFAULT_OVERSUB = {16: (4.0, 4.0), 32: (4.0, 8.0), 64: (8.0, 8.0), 128: (8.0, 16.0)}


def _topology_cases(
    oversubscriptions: dict[int, tuple[float, float]], pods: int
) -> tuple[TopologyCase, ...]:
    cases = []
    for total, (tor, agg) in sorted(oversubscriptions.items()):
        spec = DatacenterSpec(pods=pods, tor_oversub=tor, agg_oversub=agg)
        assert int(spec.total_oversubscription) == total
        cases.append(TopologyCase(f"{total}x", spec))
    return tuple(cases)


SCENARIO = Scenario(
    name="fig09",
    title="Fig. 9 — rejected bandwidth vs oversubscription ratio",
    kind="rejection",
    variants=(Variant("cm"), Variant("ovoc")),
    loads=(0.9,),
    bmaxes=(800.0,),
    topologies=_topology_cases(DEFAULT_OVERSUB, pods=2),
)


@dataclass(frozen=True)
class OversubPoint:
    oversubscription: int
    algorithm: str
    metrics: RunMetrics


def _points(result: ScenarioResult) -> list[OversubPoint]:
    return [
        OversubPoint(
            int(r.trial.topology.spec.total_oversubscription),
            r.trial.variant.name,
            r.payload,
        )
        for r in result
    ]


def run(
    *,
    oversubscriptions: dict[int, tuple[float, float]] | None = None,
    load: float = 0.9,
    bmax: float = 800.0,
    pods: int = 2,
    arrivals: int = 600,
    seed: int = 0,
    algorithms: tuple[str, ...] = ("cm", "ovoc"),
    n_jobs: int = 1,
) -> list[OversubPoint]:
    scenario = SCENARIO.override(
        topologies=_topology_cases(oversubscriptions or DEFAULT_OVERSUB, pods),
        loads=(load,),
        bmaxes=(bmax,),
        arrivals=arrivals,
        seeds=(seed,),
        variants=tuple(Variant(a) for a in algorithms),
    )
    return _points(Engine(n_jobs=n_jobs).run(scenario))


def to_table(points: list[OversubPoint]) -> Table:
    table = Table(
        "Fig. 9 — rejected bandwidth (%) vs oversubscription ratio",
        ("oversubscription", "algorithm", "BW rejected"),
    )
    for p in points:
        table.add(
            f"{p.oversubscription}x",
            p.algorithm,
            f"{p.metrics.bw_rejection_rate:.1%}",
        )
    return table


def present(result: ScenarioResult) -> None:
    to_table(_points(result)).show()


registry.register(SCENARIO, present, aliases=("fig9",))
