"""Fig. 10: micro-benchmark of the CM subroutines (the paper's ablation).

Deactivates Coloc and Balance one at a time: "Colocation is clearly the
main factor in accepting more resource requests but Balance also
contributes ... Even without Coloc, the Balance-only approach performed
close to OVOC."
"""

from __future__ import annotations

from repro.engine import Scenario, ScenarioResult, Variant, registry
from repro.experiments._table import Table

__all__ = ["SCENARIO"]

_LABELS = {
    "cm": "Coloc+Balance",
    "cm-coloc-only": "Coloc",
    "cm-balance-only": "Balance",
    "ovoc": "OVOC",
}

SCENARIO = Scenario(
    name="fig10",
    title="Fig. 10 — CM subroutine ablation",
    kind="rejection",
    variants=tuple(Variant(name) for name in _LABELS),
    loads=(0.8,),
    bmaxes=(800.0,),
)


def present(result: ScenarioResult) -> None:
    from repro.experiments._chart import bar_chart

    table = Table(
        "Fig. 10 — CM subroutine ablation (rejected bandwidth %)",
        ("variant", "BW rejected", "VM rejected"),
    )
    bars = {}
    for r in result:
        label = _LABELS.get(r.trial.variant.name, r.trial.variant.name)
        table.add(
            label,
            f"{r.payload.bw_rejection_rate:.1%}",
            f"{r.payload.vm_rejection_rate:.1%}",
        )
        bars[label] = r.payload.bw_rejection_rate * 100
    table.show()
    print(bar_chart(bars, title="Fig. 10 — rejected bandwidth (%)", unit="%"))


def _rates(trials, variant: str) -> list[float]:
    """The variant's rejected-BW fractions, one per grid point."""
    return [r.payload.bw_rejection_rate for r in trials.by_variant(variant)]


def _excess(variant: str, other: str):
    """The most ``variant`` rejects beyond ``other`` at any grid point."""

    def measure(trials) -> float | None:
        mine, theirs = _rates(trials, variant), _rates(trials, other)
        return max(a - b for a, b in zip(mine, theirs)) if mine and theirs else None

    return measure


def _ovoc_shortfall(trials) -> float | None:
    """The most any variant rejects beyond OVOC at any grid point."""
    ovoc = _rates(trials, "ovoc")
    rates = [_rates(trials, name) for name in {r.trial.variant.name for r in trials}]
    if not ovoc or len(rates) < 2:
        return None
    return max(max(point) - o for *point, o in zip(*rates, ovoc))


CLAIMS = (
    registry.Claim(
        "Fig. 10",
        "colocation is clearly the main factor but Balance also contributes "
        "[rejected-BW fraction, Coloc+Balance minus Coloc]",
        _excess("cm", "cm-coloc-only"), high=1e-9,
    ),
    registry.Claim(
        "Fig. 10",
        "Coloc+Balance beats OVOC [rejected-BW fraction, Coloc+Balance minus "
        "OVOC]",
        _excess("cm", "ovoc"), high=1e-9,
    ),
    registry.Claim(
        "Fig. 10",
        "even without Coloc, the Balance-only approach performed close to OVOC "
        "[rejected-BW fraction, Balance minus OVOC].  Known deviation: ours "
        "lands closer to full CM, as best-fit subtree search already "
        "localizes tenants",
        _excess("cm-balance-only", "ovoc"), high=1e-9,
    ),
    registry.Claim(
        "Fig. 10",
        "OVOC is the worst of the four [largest rejected-BW fraction minus "
        "OVOC's]",
        _ovoc_shortfall, high=1e-9,
    ),
)

registry.register(SCENARIO, present, claims=CLAIMS)
