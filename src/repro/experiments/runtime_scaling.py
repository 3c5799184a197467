"""§5.1 "Algorithm runtime": CM vs Oktopus vs SecondNet placement latency.

The paper reports CM "typically runs within 200 msec for tenants of up to
100s of VMs and up to a few seconds for tenants of up to 1000 VMs", that
CM and Oktopus run within the same order of magnitude, and that pipe
placement (SecondNet) is dramatically slower.  This driver times single
placements on an empty datacenter across tenant sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import Engine, Scenario, ScenarioResult, Variant, registry
from repro.experiments._table import Table

__all__ = ["run", "SCENARIO", "DEFAULT_SIZES"]

DEFAULT_SIZES = (25, 100, 400, 1000)

SCENARIO = Scenario(
    name="runtime",
    title="§5.1 — single-tenant placement runtime",
    kind="runtime",
    variants=(Variant("cm"), Variant("ovoc"), Variant("secondnet")),
    xs=DEFAULT_SIZES,
    params=(("secondnet_size_cap", 120),),
)


@dataclass(frozen=True)
class RuntimePoint:
    vms: int
    algorithm: str
    seconds: float
    placed: bool


def _points(result: ScenarioResult) -> list[RuntimePoint]:
    return [
        RuntimePoint(
            int(r.trial.x),
            r.trial.variant.name,
            r.payload["seconds"],
            r.payload["placed"],
        )
        for r in result
        if r.payload is not None  # secondnet skipped above its size cap
    ]


def run(
    *,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    pods: int = 2,
    algorithms: tuple[str, ...] = ("cm", "ovoc", "secondnet"),
    secondnet_size_cap: int = 120,
    n_jobs: int = 1,
) -> list[RuntimePoint]:
    scenario = SCENARIO.override(
        xs=sizes,
        pods=pods,
        variants=tuple(Variant(a) for a in algorithms),
        params=(("secondnet_size_cap", secondnet_size_cap),),
    )
    return _points(Engine(n_jobs=n_jobs).run(scenario))


def to_table(points: list[RuntimePoint]) -> Table:
    table = Table(
        "§5.1 — single-tenant placement runtime (empty datacenter)",
        ("VMs", "algorithm", "runtime (ms)", "placed"),
    )
    for p in points:
        table.add(p.vms, p.algorithm, f"{p.seconds * 1e3:.1f}", "yes" if p.placed else "NO")
    return table


def present(result: ScenarioResult) -> None:
    to_table(_points(result)).show()


registry.register(SCENARIO, present)
