"""Fig. 4 (motivation): the hose model fails to isolate guarantees.

The business-logic VM has a 500 Mbps guarantee from the web tier and
100 Mbps from the DB tier, behind a 600 Mbps bottleneck.  When both tiers
blast, the hose model (one aggregate 600 Mbps guarantee) splits the
bottleneck TCP-style and web falls short of 500; the TAG keeps the two
guarantees separate.
"""

from __future__ import annotations

from repro.engine import Engine, Scenario, ScenarioResult, Variant, registry
from repro.enforcement.scenarios import Fig4Outcome
from repro.experiments._table import Table

__all__ = ["run", "SCENARIO"]

SCENARIO = Scenario(
    name="fig04",
    title="Fig. 4 — hose vs TAG guarantee isolation",
    kind="hose_fail",
    pool="",
    variants=(Variant("tag"), Variant("hose")),
)


def _to_outcomes(result: ScenarioResult) -> dict[str, Fig4Outcome]:
    return {r.trial.variant.name: r.payload for r in result}


def run(*, n_jobs: int = 1, **kwargs) -> dict[str, Fig4Outcome]:
    scenario = SCENARIO.override(params=tuple(sorted(kwargs.items())))
    return _to_outcomes(Engine(n_jobs=n_jobs).run(scenario))


def to_table(outcomes: dict[str, Fig4Outcome]) -> Table:
    table = Table(
        "Fig. 4 — logic VM throughput by source tier (Mbps)",
        ("model", "web->logic", "db->logic", "500 Mbps web guarantee met"),
    )
    for model, outcome in outcomes.items():
        table.add(
            model,
            f"{outcome.web_to_logic:.0f}",
            f"{outcome.db_to_logic:.0f}",
            "yes" if outcome.web_guarantee_met else "NO",
        )
    return table


def present(result: ScenarioResult) -> None:
    to_table(_to_outcomes(result)).show()


registry.register(SCENARIO, present, aliases=("fig4",))
