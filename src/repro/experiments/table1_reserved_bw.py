"""Table 1: reserved bandwidth (Gbps) per network level for three combos.

CM+TAG places with CloudMirror and accounts with Eq. 1; CM+VOC re-accounts
the *same* placement under the footnote-7 VOC requirement; OVOC places the
same accepted tenants with the improved Oktopus.  Idealized unlimited
topology, arrivals only, stop at the first slot rejection.

The paper's rows (bing workload, Gbps, ratio to CM+TAG in parentheses)::

    CM+TAG   3209.0        1006.8        0.7
    CM+VOC   3266.5 (1.02) 1230.1 (1.22) 1.7 (2.55)
    OVOC     2978.8 (0.93) 1299.7 (1.29) 14.7 (22.08)
"""

from __future__ import annotations

from repro.engine import Scenario, ScenarioResult, Variant, registry
from repro.engine.context import POOL_NAMES
from repro.experiments._table import Table
from repro.simulation.runner import ReservedBandwidth

__all__ = ["SCENARIO"]

LEVELS = ReservedBandwidth.LEVELS

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


def present(result: ScenarioResult) -> None:
    # One table per grid point (the CLI allows --seeds/--bmax sweeps).
    for trial_result in result:
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

        table.add("CM+TAG", *(f"{reserved.cm_tag[x]:.1f}" for x in LEVELS))
        table.add("CM+VOC", *(ratio(reserved.cm_voc, x) for x in LEVELS))
        table.add("OVOC", *(ratio(reserved.ovoc, x) for x in LEVELS))
        table.show()


def _over_tag(row: str, levels: tuple[str, ...]):
    """The least ``row`` reserves beyond CM+TAG at any of ``levels`` (Gbps)."""
    return lambda trials: min(
        getattr(r.payload, row)[level] - r.payload.cm_tag[level]
        for r in trials
        for level in levels
    )


def _penalty_growth(trials) -> float:
    # tor_ratio >= 0.8 x server_ratio, multiplied through by the CM+TAG
    # ToR reservation so that a tree with no ToR traffic compares 0 >= 0.
    def growth(reserved: ReservedBandwidth) -> float:
        server_ratio = reserved.cm_voc["server"] / max(reserved.cm_tag["server"], 1e-9)
        return reserved.cm_voc["tor"] - 0.8 * server_ratio * reserved.cm_tag["tor"]

    return min(growth(r.payload) for r in trials)


CLAIMS = (
    registry.Claim(
        "Table 1",
        "VOC accounts at least TAG's bandwidth on the same placement, at every "
        "level [least CM+VOC minus CM+TAG, Gbps; paper: agg 1.7 vs 0.7]",
        _over_tag("cm_voc", LEVELS), low=-1e-9,
    ),
    registry.Claim(
        "Table 1",
        "exact TAG accounting reserves less than VOC on the same placement "
        "[CM+VOC minus CM+TAG at the server level, Gbps, above float noise; "
        "paper: 3266.5 vs 3209.0]",
        _over_tag("cm_voc", ("server",)), low=1e-6,
    ),
    registry.Claim(
        "Table 1",
        "the VOC penalty grows up the tree, 1.02 at the server to 1.22 at ToR "
        "[CM+VOC ToR minus 0.8 x CM+TAG ToR x server VOC/TAG ratio, Gbps]",
        _penalty_growth, low=0.0,
    ),
    registry.Claim(
        "Table 1",
        "Oktopus placement wastes the most above the rack [least OVOC minus "
        "CM+TAG at ToR and agg, Gbps; paper: agg 14.7 vs 0.7]",
        _over_tag("ovoc", ("tor", "agg")), low=-1e-9,
    ),
)

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
    claims=CLAIMS,
)
