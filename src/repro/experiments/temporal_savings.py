"""§6 extension: window-aware vs peak-everywhere admission capacity.

The paper's §6 notes CloudMirror can adopt workload profiling [18] to be
"even more efficient".  This driver quantifies the claim on the engine:
a deterministic mix of day-peaking interactive tenants and night-peaking
batch tenants is admitted into two identical oversubscribed datacenters
— one accounting reservations per time window (W bandwidth planes), one
flattening every tenant to its peak — and reports how many fit plus the
per-window server-level utilization profile.
"""

from __future__ import annotations

from repro.engine import Scenario, ScenarioResult, TopologyCase, Variant, registry
from repro.experiments._table import Table
from repro.topology.builder import DatacenterSpec

__all__ = ["SCENARIO"]

# Tight per-server slots force tenants to span servers, so server
# uplinks — not slots — are the binding resource, which is where
# time-multiplexing the reservations pays off.
_SPEC = DatacenterSpec(
    servers_per_rack=8,
    racks_per_pod=4,
    pods=2,
    slots_per_server=4,
    server_uplink=2000.0,
    tor_oversub=4.0,
    agg_oversub=4.0,
)

SCENARIO = Scenario(
    name="temporal",
    title="§6 — window-aware vs peak-everywhere admission",
    kind="temporal",
    pool="",
    variants=(Variant("window"), Variant("peak")),
    topologies=(TopologyCase("2x4x8", _SPEC),),
    xs=(4, 8, 12),
    params=(("tenants", 48), ("trough", 0.2)),
)


def present(result: ScenarioResult) -> None:
    table = Table(
        "§6 — tenants admitted before bandwidth runs out",
        ("windows", "accounting", "admitted", "of", "peak window util"),
    )
    for r in result:
        payload = r.payload
        label = (
            "window-aware" if r.trial.variant.name == "window" else "peak-everywhere"
        )
        peak_util = max(payload["utilization"], default=0.0)
        table.add(
            payload["windows"],
            label,
            payload["admitted"],
            payload["tenants"],
            f"{peak_util:.0%}",
        )
    table.show()
    for windows, ratio in _ratios(result):
        print(
            f"W={windows}: window-aware admits {ratio:.2f}x the "
            f"peak-everywhere tenant count"
        )


def _ratios(trials) -> list[tuple[int, float]]:
    """Window-aware / peak-everywhere admitted count, per window count."""
    by_windows: dict[int, dict[str, int]] = {}
    for r in trials:
        by_windows.setdefault(r.payload["windows"], {})[
            r.trial.variant.name
        ] = r.payload["admitted"]
    return [
        (windows, admitted["window"] / admitted["peak"])
        for windows, admitted in sorted(by_windows.items())
        if "window" in admitted and "peak" in admitted and admitted["peak"]
    ]


def _least_ratio(trials) -> float | None:
    return min((ratio for _, ratio in _ratios(trials)), default=None)


CLAIMS = (
    registry.Claim(
        "§6",
        "CloudMirror can adopt workload profiling to be even more efficient "
        "[window-aware / peak-everywhere tenants admitted, least over W]",
        _least_ratio, low=1.5, strict=True,
    ),
)

registry.register(
    SCENARIO,
    present,
    options=(
        registry.ScenarioOption(
            "--windows",
            registry.int_list,
            "comma-separated window counts on the x-axis",
            lambda scenario, value: scenario.override(xs=value),
        ),
    ),
    claims=CLAIMS,
)
