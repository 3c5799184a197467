"""§5.1 "Algorithm runtime": CM vs Oktopus vs SecondNet placement latency.

The paper reports CM "typically runs within 200 msec for tenants of up to
100s of VMs and up to a few seconds for tenants of up to 1000 VMs", that
CM and Oktopus run within the same order of magnitude, and that pipe
placement (SecondNet) is dramatically slower.  This driver times single
placements on an empty datacenter across tenant sizes.
"""

from __future__ import annotations

from repro.engine import Scenario, ScenarioResult, Variant, registry
from repro.experiments._table import Table

__all__ = ["SCENARIO"]

SCENARIO = Scenario(
    name="runtime",
    title="§5.1 — single-tenant placement runtime",
    kind="runtime",
    variants=(Variant("cm"), Variant("ovoc"), Variant("secondnet")),
    xs=(25, 100, 400, 1000),
    params=(("secondnet_size_cap", 120),),
)


def present(result: ScenarioResult) -> None:
    table = Table(
        "§5.1 — single-tenant placement runtime (empty datacenter)",
        ("VMs", "algorithm", "runtime (ms)", "placed"),
    )
    for r in result:
        if r.payload is None:  # secondnet skipped above its size cap
            continue
        table.add(
            int(r.trial.x),
            r.trial.variant.name,
            f"{r.payload['seconds'] * 1e3:.1f}",
            "yes" if r.payload["placed"] else "NO",
        )
    table.show()


def _timed(trials, algorithm: str) -> dict[int, dict]:
    """The algorithm's payloads by tenant size (sizes it was run at)."""
    return {
        int(r.trial.x): r.payload
        for r in trials.by_variant(algorithm)
        if r.payload is not None
    }


def _cm_up_to(vms: int):
    def measure(trials) -> float | None:
        cm = _timed(trials, "cm").items()
        return max((p["seconds"] for size, p in cm if size <= vms), default=None)

    return measure


def _secondnet_slowdown(trials) -> float | None:
    cm, secondnet = _timed(trials, "cm"), _timed(trials, "secondnet")
    if 100 not in cm or 100 not in secondnet:
        return None
    return secondnet[100]["seconds"] / cm[100]["seconds"]


def _placed(trials) -> float | None:
    runs = [_timed(trials, name).get(100) for name in ("cm", "ovoc")]
    return None if None in runs else float(all(p["placed"] for p in runs))


CLAIMS = (
    registry.Claim(
        "§5.1",
        "CM typically runs within 200 msec for tenants of up to 100s of VMs "
        "[CM's slowest placement (s), at most 100 VMs]",
        _cm_up_to(100), high=0.2, strict=True, paper=0.2,
    ),
    registry.Claim(
        "§5.1",
        "and up to a few seconds for tenants of up to 1000 VMs [CM's slowest "
        "placement (s), at most 1000 VMs]",
        _cm_up_to(1000), high=5.0, strict=True,
    ),
    registry.Claim(
        "§5.1",
        "pipe placement (SecondNet) is dramatically slower [SecondNet / CM "
        "placement time, 100 VMs]",
        _secondnet_slowdown, low=1.0, strict=True,
    ),
    registry.Claim(
        "§5.1",
        "the times are of successful placements [1 if CM and Oktopus both "
        "place the 100-VM tenant, else 0]",
        _placed, low=1.0,
    ),
)

registry.register(SCENARIO, present, claims=CLAIMS)
