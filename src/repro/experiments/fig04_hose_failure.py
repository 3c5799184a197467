"""Fig. 4 (motivation): the hose model fails to isolate guarantees.

The business-logic VM has a 500 Mbps guarantee from the web tier and
100 Mbps from the DB tier, behind a 600 Mbps bottleneck.  When both tiers
blast, the hose model (one aggregate 600 Mbps guarantee) splits the
bottleneck TCP-style and web falls short of 500; the TAG keeps the two
guarantees separate.
"""

from __future__ import annotations

from repro.engine import Scenario, ScenarioResult, Variant, registry
from repro.experiments._table import Table

__all__ = ["SCENARIO"]

SCENARIO = Scenario(
    name="fig04",
    title="Fig. 4 — hose vs TAG guarantee isolation",
    kind="hose_fail",
    pool="",
    variants=(Variant("tag"), Variant("hose")),
)


def present(result: ScenarioResult) -> None:
    table = Table(
        "Fig. 4 — logic VM throughput by source tier (Mbps)",
        ("model", "web->logic", "db->logic", "500 Mbps web guarantee met"),
    )
    for r in result:
        table.add(
            r.trial.variant.name,
            f"{r.payload.web_to_logic:.0f}",
            f"{r.payload.db_to_logic:.0f}",
            "yes" if r.payload.web_guarantee_met else "NO",
        )
    table.show()


def _throughput(mode: str, field: str):
    def measure(trials) -> float | None:
        runs = trials.by_variant(mode)
        return getattr(runs[0].payload, field) if runs else None

    return measure


# pytest.approx's default tolerance: a relative 1e-6.
CLAIMS = (
    registry.Claim(
        "Fig. 4",
        "TAG delivers the web tier its 500 Mbps guarantee [web->logic, TAG]",
        _throughput("tag", "web_to_logic"),
        low=500.0 * (1 - 1e-6), high=500.0 * (1 + 1e-6), paper=500.0,
    ),
    registry.Claim(
        "Fig. 4",
        "TAG keeps the DB tier's 100 Mbps guarantee apart [db->logic, TAG]",
        _throughput("tag", "db_to_logic"),
        low=100.0 * (1 - 1e-6), high=100.0 * (1 + 1e-6), paper=100.0,
    ),
    registry.Claim(
        "Fig. 4",
        "the hose splits its 600 Mbps TCP-style and cannot deliver 500 Mbps "
        "to the web tier [web->logic, hose]",
        _throughput("hose", "web_to_logic"), high=500.0, strict=True, paper=300.0,
    ),
)

registry.register(SCENARIO, present, aliases=("fig4",), claims=CLAIMS)
