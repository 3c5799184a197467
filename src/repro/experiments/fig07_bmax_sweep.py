"""Fig. 7: rejection rates vs B_max at two load levels, CM vs OVOC.

"(a) Load = 50%" and "(b) Load = 90%": sweeping the per-VM bandwidth
scale B_max from 400 to 1200 Mbps, plotting rejected-bandwidth and
rejected-VM fractions.  The paper's headline: "for some B_max, CM can
deploy almost all requests while OVOC rejects up to 40% of bandwidth
requests."
"""

from __future__ import annotations

import numpy as np

from repro.engine import Scenario, ScenarioResult, Variant, registry
from repro.experiments._table import Table

__all__ = ["SCENARIO"]

SCENARIO = Scenario(
    name="fig07",
    title="Fig. 7 — rejection rates vs B_max at 50% and 90% load",
    kind="rejection",
    variants=(Variant("cm"), Variant("ovoc")),
    loads=(0.5, 0.9),
    bmaxes=(400.0, 600.0, 800.0, 1000.0, 1200.0),
)


def present(result: ScenarioResult) -> None:
    table = Table(
        "Fig. 7 — rejection rates (%) vs B_max",
        ("load", "bmax", "algorithm", "BW rejected", "VM rejected", "tenants rejected"),
    )
    for r in result:
        table.add(
            f"{r.trial.load:.0%}",
            f"{r.trial.bmax:.0f}",
            r.trial.variant.name,
            f"{r.payload.bw_rejection_rate:.1%}",
            f"{r.payload.vm_rejection_rate:.1%}",
            f"{r.payload.tenant_rejection_rate:.1%}",
        )
    table.show()
    # Seed-replicated grids additionally get mean ± bootstrap CI rows.
    from repro.results.present import seed_replicated_summary

    summary = seed_replicated_summary(
        result, metric="bw_rejection_rate", axis="bmax"
    )
    if summary:
        print(summary)


def _sweeps(trials, variant: str) -> list[list[float]]:
    """Per load: the variant's rejected-bandwidth fractions across B_max."""
    by_load: dict[float, list[float]] = {}
    for r in trials.by_variant(variant):
        by_load.setdefault(r.trial.load, []).append(r.payload.bw_rejection_rate)
    return list(by_load.values())


def _gap(trials) -> float | None:
    cm, ovoc = _sweeps(trials, "cm"), _sweeps(trials, "ovoc")
    if not cm or not ovoc:
        return None
    return max(np.mean(c) - np.mean(o) for c, o in zip(cm, ovoc))


def _across(variant: str, over_bmax, over_loads):
    def measure(trials) -> float | None:
        sweeps = _sweeps(trials, variant)
        return over_loads(map(over_bmax, sweeps)) if sweeps else None

    return measure


CLAIMS = (
    registry.Claim(
        "Fig. 7",
        "CM rejects less bandwidth than OVOC at every load [largest per-load "
        "mean over B_max, CM minus OVOC rejected-BW fraction]",
        _gap, high=0.0, strict=True,
    ),
    registry.Claim(
        "Fig. 7",
        "OVOC rejects up to 40% of bandwidth requests [OVOC's peak rejected-BW "
        "fraction over B_max, at the load where it is lowest]",
        _across("ovoc", max, min), low=0.2, strict=True, paper=0.4,
    ),
    registry.Claim(
        "Fig. 7",
        "for some B_max, CM can deploy almost all requests [CM's lowest "
        "rejected-BW fraction over B_max, at the load where it is highest]",
        _across("cm", min, max), high=0.05, strict=True,
    ),
)

registry.register(SCENARIO, present, aliases=("fig7",), claims=CLAIMS)
