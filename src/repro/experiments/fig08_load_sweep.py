"""Fig. 8: rejection rates vs datacenter load at B_max = 800 Mbps.

"OVOC fails to deploy a set of tenants having large slot or bandwidth
demands even at low loads while CM efficiently places most of them."
"""

from __future__ import annotations

import numpy as np

from repro.engine import Scenario, ScenarioResult, Variant, registry
from repro.experiments._table import Table

__all__ = ["SCENARIO"]

SCENARIO = Scenario(
    name="fig08",
    title="Fig. 8 — rejection rates vs load, B_max = 800 Mbps",
    kind="rejection",
    variants=(Variant("cm"), Variant("ovoc")),
    loads=(0.1, 0.3, 0.5, 0.7, 0.9),
    bmaxes=(800.0,),
)


def present(result: ScenarioResult) -> None:
    table = Table(
        "Fig. 8 — rejection rates (%) vs load, B_max = 800 Mbps",
        ("load", "algorithm", "BW rejected", "VM rejected"),
    )
    series: dict[str, list[tuple[float, float]]] = {}
    for r in result:
        rate = r.payload.bw_rejection_rate
        table.add(
            f"{r.trial.load:.0%}",
            r.trial.variant.name,
            f"{rate:.1%}",
            f"{r.payload.vm_rejection_rate:.1%}",
        )
        series.setdefault(r.trial.variant.name, []).append(
            (r.trial.load * 100, rate * 100)
        )
    table.show()
    from repro.experiments._chart import line_chart

    print(
        line_chart(
            series,
            title="Fig. 8 — rejected bandwidth (%) vs load (%)",
            x_label="load (%)",
        )
    )
    # Seed-replicated grids additionally get mean ± bootstrap CI rows
    # and a banded chart.
    from repro.results.present import seed_replicated_summary

    summary = seed_replicated_summary(
        result, metric="bw_rejection_rate", axis="load"
    )
    if summary:
        print(summary)


def _rates(trials, variant: str, load: float | None = None) -> list[float]:
    """The variant's rejected-bandwidth fractions (at ``load`` only, if given)."""
    return [
        r.payload.bw_rejection_rate
        for r in trials.by_variant(variant)
        if load in (None, r.trial.load)
    ]


def _gap(trials) -> float | None:
    cm, ovoc = _rates(trials, "cm"), _rates(trials, "ovoc")
    return np.mean(cm) - np.mean(ovoc) if cm and ovoc else None


def _at_lowest_load(variant: str, worst):
    def measure(trials) -> float | None:
        rates = _rates(trials, variant, min(r.trial.load for r in trials))
        return worst(rates) if rates else None

    return measure


CLAIMS = (
    registry.Claim(
        "Fig. 8",
        "CM places most of the tenants OVOC fails [mean rejected-BW fraction "
        "over the loads, CM minus OVOC]",
        _gap, high=0.0, strict=True,
    ),
    registry.Claim(
        "Fig. 8",
        "OVOC fails to deploy tenants having large slot or bandwidth demands "
        "even at low loads [OVOC's rejected-BW fraction, lowest load]",
        _at_lowest_load("ovoc", min), low=0.05, strict=True,
    ),
    registry.Claim(
        "Fig. 8",
        "while CM efficiently places most of them [CM's rejected-BW fraction, "
        "lowest load]",
        _at_lowest_load("cm", max), high=0.05, strict=True,
    ),
)

registry.register(SCENARIO, present, aliases=("fig8",), claims=CLAIMS)
