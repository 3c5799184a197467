"""Fig. 13: TAG guarantees under ElasticSwitch-style enforcement.

VM Z (tier C2) receives TCP traffic from VM X (tier C1, 450 Mbps trunk
guarantee) and a growing number of C2 senders (450 Mbps intra hose)
through a 1 Gbps bottleneck with 10% left unreserved.  TAG mode keeps
X -> Z at its guarantee; collapsing the guarantees into one hose lets the
intra-tier traffic crowd X out (the Fig. 4 failure, quantified).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from repro.engine import Engine, Scenario, ScenarioResult, Variant, registry
from repro.enforcement.scenarios import Fig13Point
from repro.experiments._table import Table

__all__ = ["run", "SCENARIO"]

SCENARIO = Scenario(
    name="fig13",
    title="Fig. 13 — TAG vs hose under enforcement",
    kind="enforce",
    pool="",
    variants=(Variant("tag"), Variant("hose")),
    xs=tuple(range(6)),
    params=(("bottleneck", 1000.0), ("guarantee", 450.0)),
)


@dataclass(frozen=True)
class Fig13Result:
    tag_points: list[Fig13Point]
    hose_points: list[Fig13Point]
    guarantee: float


def _to_result(result: ScenarioResult) -> Fig13Result:
    return Fig13Result(
        tag_points=[r.payload for r in result.by_variant("tag")],
        hose_points=[r.payload for r in result.by_variant("hose")],
        guarantee=result.scenario.param("guarantee", 450.0),
    )


def run(
    *,
    max_senders: int = 5,
    guarantee: float = 450.0,
    bottleneck: float = 1000.0,
    n_jobs: int = 1,
) -> Fig13Result:
    scenario = SCENARIO.override(
        xs=tuple(range(max_senders + 1)),
        params=(("bottleneck", bottleneck), ("guarantee", guarantee)),
    )
    return _to_result(Engine(n_jobs=n_jobs).run(scenario))


def to_table(result: Fig13Result) -> Table:
    table = Table(
        "Fig. 13 — TCP throughput of VM Z (Mbps) vs #senders in C2",
        ("C2 senders", "X->Z (TAG)", "C2->Z (TAG)", "X->Z (hose)", "C2->Z (hose)"),
    )
    # zip_longest: either mode may be absent when --placers restricts
    # the variant axis to a single abstraction.
    for tag_p, hose_p in zip_longest(result.tag_points, result.hose_points):
        table.add(
            (tag_p or hose_p).senders_in_c2,
            f"{tag_p.x_to_z:.0f}" if tag_p else "-",
            f"{tag_p.c2_to_z:.0f}" if tag_p else "-",
            f"{hose_p.x_to_z:.0f}" if hose_p else "-",
            f"{hose_p.c2_to_z:.0f}" if hose_p else "-",
        )
    return table


def to_chart(result: Fig13Result) -> str:
    from repro.experiments._chart import line_chart

    return line_chart(
        {
            "X->Z (TAG)": [
                (p.senders_in_c2, p.x_to_z) for p in result.tag_points
            ],
            "X->Z (hose)": [
                (p.senders_in_c2, p.x_to_z) for p in result.hose_points
            ],
        },
        title="Fig. 13(b) — throughput of VM Z (Mbps)",
        x_label="senders in C2",
    )


def present(result: ScenarioResult) -> None:
    fig13 = _to_result(result)
    to_table(fig13).show()
    print(to_chart(fig13))
    print(
        f"TAG keeps X->Z >= {fig13.guarantee:.0f} Mbps for every sender "
        "count; the hose baseline degrades toward 900/(k+1)."
    )


registry.register(
    SCENARIO,
    present,
    options=(
        registry.ScenarioOption(
            "--max-senders",
            int,
            "largest C2 sender count on the x-axis",
            lambda scenario, value: scenario.override(xs=tuple(range(value + 1))),
        ),
    ),
)
