"""Fig. 1: bandwidth-to-CPU ratios of workloads vs datacenters.

Regenerates both panels as tables and checks the figure's two claims:
interactive >= batch demand ratios, and datacenter provisioning that is
adequate at the server level but short at ToR/aggregation.
"""

from __future__ import annotations

from repro.engine import Scenario, ScenarioResult, Variant, registry
from repro.experiments._table import Table

__all__ = ["SCENARIO"]

SCENARIO = Scenario(
    name="fig01",
    title="Fig. 1 — workload demand vs datacenter provisioning",
    kind="survey",
    pool="",
    variants=(Variant("survey"),),
)


def present(result: ScenarioResult) -> None:
    (payload,) = result.payloads()
    workloads = Table(
        "Fig. 1(a) — workload BW:CPU demand (Mbps/GHz)",
        ("workload", "kind", "low", "high"),
    )
    for row in payload["workload_rows"]:
        workloads.add(*row)
    workloads.show()
    datacenters = Table(
        "Fig. 1(b) — datacenter BW:CPU provisioning (Mbps/GHz)",
        ("datacenter", "server", "tor", "aggregation"),
    )
    for row in payload["datacenter_rows"]:
        datacenters.add(*row)
    datacenters.show()
    print(
        f"interactive median {payload['interactive_median']:.0f} Mbps/GHz vs "
        f"batch median {payload['batch_median']:.0f} Mbps/GHz"
    )


def _medians(trials) -> float:
    (survey,) = trials.payloads()
    return survey["interactive_median"] / survey["batch_median"]


def _above_rack(trials) -> float:
    (survey,) = trials.payloads()
    worst = max(max(tor, agg) for _, _, tor, agg in survey["datacenter_rows"])
    return worst / survey["interactive_median"]


CLAIMS = (
    registry.Claim(
        "Fig. 1(a)",
        "interactive workloads demand similar-or-higher BW per CPU than batch "
        "jobs [interactive / batch median]",
        _medians, low=1.0, strict=True,
    ),
    registry.Claim(
        "Fig. 1(b)",
        "ToR/agg levels fall below interactive demand medians [largest ToR or "
        "agg ratio of any datacenter / interactive median]",
        _above_rack, high=1.0, strict=True,
    ),
)

registry.register(SCENARIO, present, aliases=("fig1",), claims=CLAIMS)
