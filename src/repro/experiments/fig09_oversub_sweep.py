"""Fig. 9: rejected bandwidth vs topology oversubscription, 16x - 128x.

"CM is resilient to highly bandwidth-constrained network environments
while OVOC is quickly incapable of deploying tenants."  The x-axis is the
end-to-end server-to-core oversubscription; the paper's base topology is
32x (= 4 x 8).
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine import Scenario, ScenarioResult, TopologyCase, Variant, registry
from repro.experiments._table import Table
from repro.topology.builder import DatacenterSpec

__all__ = ["SCENARIO"]

SCENARIO = Scenario(
    name="fig09",
    title="Fig. 9 — rejected bandwidth vs oversubscription ratio",
    kind="rejection",
    variants=(Variant("cm"), Variant("ovoc")),
    loads=(0.9,),
    bmaxes=(800.0,),
    # total = tor_oversub x agg_oversub
    topologies=tuple(
        TopologyCase(
            f"{int(tor * agg)}x",
            DatacenterSpec(pods=2, tor_oversub=tor, agg_oversub=agg),
        )
        for tor, agg in ((4.0, 4.0), (4.0, 8.0), (8.0, 8.0), (8.0, 16.0))
    ),
)


def _ratio(trial) -> int:
    return int(trial.topology.spec.total_oversubscription)


def present(result: ScenarioResult) -> None:
    table = Table(
        "Fig. 9 — rejected bandwidth (%) vs oversubscription ratio",
        ("oversubscription", "algorithm", "BW rejected"),
    )
    for r in result:
        table.add(
            f"{_ratio(r.trial)}x",
            r.trial.variant.name,
            f"{r.payload.bw_rejection_rate:.1%}",
        )
    table.show()


def _pairs(trials) -> list[tuple[int, float, float]]:
    """``(ratio, CM, OVOC)`` rejected-BW fractions per grid point."""
    cm, ovoc = trials.by_variant("cm"), trials.by_variant("ovoc")
    if not cm or not ovoc:
        return []
    return [
        (_ratio(c.trial), c.payload.bw_rejection_rate, o.payload.bw_rejection_rate)
        for c, o in zip(cm, ovoc)
    ]


def _worst_gap(trials) -> float | None:
    pairs = _pairs(trials)
    return max(cm - ovoc for _, cm, ovoc in pairs) if pairs else None


def _most_oversubscribed(trials) -> float | None:
    pairs = _pairs(trials)
    if not pairs:
        return None
    top = max(ratio for ratio, _, _ in pairs)
    return max(
        cm / ovoc if ovoc else math.inf for ratio, cm, ovoc in pairs if ratio == top
    )


def _ovoc_mean(trials) -> float | None:
    pairs = _pairs(trials)
    return np.mean([ovoc for _, _, ovoc in pairs]) if pairs else None


CLAIMS = (
    registry.Claim(
        "Fig. 9",
        "CM rejects no more bandwidth than OVOC at any oversubscription "
        "[largest CM minus OVOC rejected-BW fraction]",
        _worst_gap, high=1e-9,
    ),
    registry.Claim(
        "Fig. 9",
        "CM is resilient to highly bandwidth-constrained network environments "
        "[CM / OVOC rejected-BW fraction, most oversubscribed (128x)]",
        _most_oversubscribed, high=0.7, strict=True,
    ),
    registry.Claim(
        "Fig. 9",
        "while OVOC is quickly incapable of deploying tenants [OVOC's mean "
        "rejected-BW fraction over the oversubscription ratios]",
        _ovoc_mean, low=0.15, strict=True,
    ),
)

registry.register(SCENARIO, present, aliases=("fig9",), claims=CLAIMS)
