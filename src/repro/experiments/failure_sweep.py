"""Failure sweep: guarantee survival and re-placement churn under faults.

Extends the Fig. 4 hose-failure motivation into a full sweep axis: a
heterogeneous-capacity datacenter (mixed rack sizes, slot counts and NIC
speeds) is loaded through the standard §5.1 arrival/departure loop, then
a seeded set of server, ToR-switch and ToR-uplink failures is injected
through the ledger's FailureMask.  Tenants with a VM in a failed domain
lose their guarantee; the sweep measures how many survive, how many can
be re-placed on the degraded fabric, the VM churn that re-placement
costs, and the wall-clock time to recover.

The x-axis is the failed-server fraction (``--fractions``); the variant
axis compares how each placement algorithm's colocation choices shape
the blast radius.
"""

from __future__ import annotations

from repro.engine import Engine, Scenario, ScenarioResult, Variant, registry
from repro.experiments._table import Table

__all__ = ["run", "SCENARIO", "DEFAULT_FRACTIONS"]

DEFAULT_FRACTIONS = (0.02, 0.05, 0.1, 0.2)

SCENARIO = Scenario(
    name="failure",
    title="Failure sweep — guarantee survival & re-placement churn",
    kind="failure",
    variants=(Variant("cm"), Variant("ovoc"), Variant("secondnet")),
    loads=(0.7,),
    bmaxes=(800.0,),
    xs=DEFAULT_FRACTIONS,
    arrivals=400,
    # One ToR switch and one ToR uplink die alongside the server
    # fraction; hetero=1 places on the mixed-rack variant of the spec.
    params=(("switches", 1), ("links", 1), ("hetero", 1)),
)


def run(
    *,
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
    load: float = 0.7,
    arrivals: int = 400,
    pods: int | None = None,
    seed: int = 0,
    algorithms: tuple[str, ...] = ("cm", "ovoc", "secondnet"),
    hetero: bool = True,
    n_jobs: int = 1,
) -> ScenarioResult:
    scenario = SCENARIO.override(
        xs=fractions,
        loads=(load,),
        arrivals=arrivals,
        pods=pods,
        seeds=(seed,),
        variants=tuple(Variant(a) for a in algorithms),
        params=(("switches", 1), ("links", 1), ("hetero", int(hetero))),
    )
    return Engine(n_jobs=n_jobs).run(scenario)


def to_table(result: ScenarioResult) -> Table:
    table = Table(
        "Failure sweep — survival and re-placement after injected faults",
        (
            "failed",
            "algorithm",
            "placed",
            "victims",
            "survival",
            "replaced",
            "lost",
            "churn VMs",
            "recover",
        ),
    )
    for r in result:
        payload = r.payload
        table.add(
            f"{float(r.trial.x):.0%}",
            r.trial.variant.name,
            payload["placed"],
            payload["victims"],
            f"{payload['survival_rate']:.0%}",
            payload["replaced"],
            payload["lost"],
            payload["churn_vms"],
            f"{payload['recover_seconds'] * 1e3:.1f} ms",
        )
    return table


def present(result: ScenarioResult) -> None:
    to_table(result).show()
    worst: dict[str, float] = {}
    for r in result:
        name = r.trial.variant.name
        worst[name] = min(worst.get(name, 1.0), r.payload["survival_rate"])
    for name, rate in sorted(worst.items()):
        print(f"{name}: worst-case guarantee survival {rate:.0%}")


registry.register(
    SCENARIO,
    present,
    aliases=("failures",),
    options=(
        registry.ScenarioOption(
            "--fractions",
            registry.float_list,
            "comma-separated failed-server fractions on the x-axis",
            lambda scenario, value: scenario.override(xs=value),
        ),
    ),
)
