"""Fig. 11: impact of guaranteeing worst-case survivability (WCS).

Sweeps the required server-level WCS over {0, 25, 50, 75}% for CM+HA and
OVOC+HA.  Claims: (a) both algorithms achieve at least the required WCS,
with CM+HA's *mean* WCS higher; (b) rejected bandwidth grows only
slightly with the requirement (bandwidth is not the bottleneck at the
server level).
"""

from __future__ import annotations

from repro.engine import Scenario, ScenarioResult, Variant, registry
from repro.experiments._table import Table
from repro.placement.ha import HaPolicy

__all__ = ["SCENARIO"]

SCENARIO = Scenario(
    name="fig11",
    title="Fig. 11 — guaranteeing WCS at the server level",
    kind="rejection",
    variants=tuple(
        Variant(
            f"{algorithm}@{required:.0%}",
            algorithm,
            HaPolicy(required_wcs=required, laa_level=0),
        )
        for required in (0.0, 0.25, 0.5, 0.75)
        for algorithm in ("cm", "ovoc")
    ),
    loads=(0.7,),
    bmaxes=(800.0,),
)


def _required(trial) -> float:
    return trial.variant.ha.required_wcs if trial.variant.ha else 0.0


def present(result: ScenarioResult) -> None:
    table = Table(
        "Fig. 11 — guaranteeing WCS at the server level",
        (
            "required WCS",
            "algorithm",
            "mean WCS",
            "min WCS",
            "BW rejected",
            "slot util",
        ),
    )
    for r in result:
        variant, metrics = r.trial.variant, r.payload
        table.add(
            f"{_required(r.trial):.0%}",
            variant.placer.upper() + ("+HA" if variant.ha else ""),
            f"{metrics.wcs.mean:.1%}",
            f"{metrics.wcs.minimum:.1%}",
            f"{metrics.bw_rejection_rate:.1%}",
            # §4.5: "guaranteeing WCS may decrease datacenter utilization".
            f"{metrics.mean_slot_utilization:.1%}",
        )
    table.show()


def _cm_sweeps(trials) -> list[dict[float, object]]:
    """Per (load, B_max) point: CM's run metrics by required WCS."""
    sweeps: dict[tuple[float, float], dict[float, object]] = {}
    for r in trials:
        if r.trial.variant.placer == "cm":
            point = sweeps.setdefault((r.trial.load, r.trial.bmax), {})
            point[_required(r.trial)] = r.payload
    return list(sweeps.values())


def _floor_margin(trials) -> float | None:
    # Eq. 7's max(1, .) floor: a 2-VM tier spread over two servers can
    # never exceed 50% WCS, whatever the requirement.
    margins = [
        metrics.wcs.minimum - min(required, 0.5)
        for cm in _cm_sweeps(trials)
        for required, metrics in cm.items()
        if required > 0
    ]
    return min(margins, default=None)


def _mean_steps(trials) -> float | None:
    steps = []
    for cm in _cm_sweeps(trials):
        means = [metrics.wcs.mean for _, metrics in sorted(cm.items())]
        steps += [b - a for a, b in zip(means, means[1:])]
    return min(steps, default=None)


def _rejection_cost(trials) -> float | None:
    costs = [
        cm[max(cm)].bw_rejection_rate - cm[0.0].bw_rejection_rate
        for cm in _cm_sweeps(trials)
        if 0.0 in cm and len(cm) >= 2
    ]
    return max(costs, default=None)


CLAIMS = (
    registry.Claim(
        "Fig. 11(a)",
        "CM+HA achieves at least the required WCS [least min WCS minus the "
        "requirement, capped at Eq. 7's 50% floor, over requirements > 0 and "
        "every (load, B_max)]",
        _floor_margin, low=-1e-9,
    ),
    registry.Claim(
        "Fig. 11(a)",
        "CM+HA's mean achieved WCS grows with the requirement [least step in "
        "mean WCS between consecutive requirements, at any (load, B_max)]",
        _mean_steps, low=0.0,
    ),
    registry.Claim(
        "Fig. 11(b)",
        "rejected bandwidth grows only slightly with the requirement [CM+HA's "
        "rejected-BW fraction, highest requirement minus 0%, at the worst "
        "(load, B_max)]",
        _rejection_cost, high=0.25,
    ),
)

registry.register(SCENARIO, present, claims=CLAIMS)
