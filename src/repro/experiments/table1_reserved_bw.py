"""Table 1: reserved bandwidth (Gbps) per network level for three combos.

CM+TAG places with CloudMirror and accounts with Eq. 1; CM+VOC re-accounts
the *same* placement under the footnote-7 VOC requirement; OVOC places the
same accepted tenants with the improved Oktopus.  Idealized unlimited
topology, arrivals only, stop at the first slot rejection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import Engine, Scenario, ScenarioResult, Variant, registry
from repro.engine.context import POOL_NAMES
from repro.experiments._table import Table
from repro.simulation.runner import ReservedBandwidth

__all__ = ["run", "SCENARIO"]

SCENARIO = Scenario(
    name="table1",
    title="Table 1 — reserved bandwidth per network level",
    kind="reserved",
    pool="bing",
    variants=(Variant("cm+voc+ovoc", "cm"),),
    bmaxes=(800.0,),
    seeds=(1,),
    pods=8,
)


@dataclass(frozen=True)
class Table1Result:
    reserved: ReservedBandwidth
    table: Table


def _to_result(trial_result) -> Table1Result:
    reserved: ReservedBandwidth = trial_result.payload
    trial = trial_result.trial
    table = Table(
        f"Table 1 — reserved bandwidth (Gbps), {trial.pool} workload, "
        f"{trial.topology.spec.num_servers} servers, "
        f"B_max {trial.bmax:.0f}, seed {trial.seed}, "
        f"{reserved.tenants_deployed} tenants",
        ("algorithm", "server", "tor", "agg"),
    )

    def ratio(row: dict[str, float], level: str) -> str:
        base = reserved.cm_tag[level]
        if base <= 0:
            return f"{row[level]:.1f}"
        return f"{row[level]:.1f} ({row[level] / base:.2f})"

    table.add("CM+TAG", *(f"{reserved.cm_tag[x]:.1f}" for x in ReservedBandwidth.LEVELS))
    table.add("CM+VOC", *(ratio(reserved.cm_voc, x) for x in ReservedBandwidth.LEVELS))
    table.add("OVOC", *(ratio(reserved.ovoc, x) for x in ReservedBandwidth.LEVELS))
    return Table1Result(reserved=reserved, table=table)


def run(
    *,
    workload: str = "bing",
    pods: int = 8,
    bmax: float = 800.0,
    seed: int = 1,
    n_jobs: int = 1,
) -> Table1Result:
    scenario = SCENARIO.override(
        pool=workload, pods=pods, bmaxes=(bmax,), seeds=(seed,)
    )
    (trial_result,) = Engine(n_jobs=n_jobs).run(scenario).results
    return _to_result(trial_result)


def present(result: ScenarioResult) -> None:
    # One table per grid point (the CLI allows --seeds/--bmax sweeps).
    for trial_result in result:
        _to_result(trial_result).table.show()


registry.register(
    SCENARIO,
    present,
    options=(
        registry.ScenarioOption(
            "--workload",
            registry.one_of(POOL_NAMES),
            f"tenant pool, one of {POOL_NAMES}",
            lambda scenario, value: scenario.override(pool=value),
        ),
    ),
)
