"""Fig. 13: TAG guarantees under ElasticSwitch-style enforcement.

VM Z (tier C2) receives TCP traffic from VM X (tier C1, 450 Mbps trunk
guarantee) and a growing number of C2 senders (450 Mbps intra hose)
through a 1 Gbps bottleneck with 10% left unreserved.  TAG mode keeps
X -> Z at its guarantee; collapsing the guarantees into one hose lets the
intra-tier traffic crowd X out (the Fig. 4 failure, quantified).
"""

from __future__ import annotations

from itertools import zip_longest

from repro.engine import Scenario, ScenarioResult, Variant, registry
from repro.experiments._table import Table

__all__ = ["SCENARIO"]

SCENARIO = Scenario(
    name="fig13",
    title="Fig. 13 — TAG vs hose under enforcement",
    kind="enforce",
    pool="",
    variants=(Variant("tag"), Variant("hose")),
    xs=tuple(range(6)),
    params=(("bottleneck", 1000.0), ("guarantee", 450.0)),
)


def _points(trials, mode: str) -> list:
    return [r.payload for r in trials.by_variant(mode)]


def present(result: ScenarioResult) -> None:
    from repro.experiments._chart import line_chart

    tag, hose = _points(result, "tag"), _points(result, "hose")
    table = Table(
        "Fig. 13 — TCP throughput of VM Z (Mbps) vs #senders in C2",
        ("C2 senders", "X->Z (TAG)", "C2->Z (TAG)", "X->Z (hose)", "C2->Z (hose)"),
    )
    # zip_longest: either mode may be absent when --placers restricts
    # the variant axis to a single abstraction.
    for tag_p, hose_p in zip_longest(tag, hose):
        table.add(
            (tag_p or hose_p).senders_in_c2,
            f"{tag_p.x_to_z:.0f}" if tag_p else "-",
            f"{tag_p.c2_to_z:.0f}" if tag_p else "-",
            f"{hose_p.x_to_z:.0f}" if hose_p else "-",
            f"{hose_p.c2_to_z:.0f}" if hose_p else "-",
        )
    table.show()
    print(
        line_chart(
            {
                "X->Z (TAG)": [(p.senders_in_c2, p.x_to_z) for p in tag],
                "X->Z (hose)": [(p.senders_in_c2, p.x_to_z) for p in hose],
            },
            title="Fig. 13(b) — throughput of VM Z (Mbps)",
            x_label="senders in C2",
        )
    )


def _tag_floor(field: str, min_senders: int):
    """TAG's least throughput into Z over sender counts >= ``min_senders``."""

    def measure(trials) -> float | None:
        points = [p for p in _points(trials, "tag") if p.senders_in_c2 >= min_senders]
        return min((getattr(p, field) for p in points), default=None)

    return measure


def _hose_share(trials) -> float | None:
    hose = _points(trials, "hose")
    if not hose:
        return None
    last = max(hose, key=lambda p: p.senders_in_c2)
    return last.x_to_z * (last.senders_in_c2 + 1)


CLAIMS = (
    registry.Claim(
        "Fig. 13",
        "TAG keeps X->Z at its 450 Mbps guarantee for every sender count "
        "[least X->Z, TAG]",
        _tag_floor("x_to_z", 0), low=450.0 - 1e-6, paper=450.0,
    ),
    registry.Claim(
        "Fig. 13",
        "with C2 senders, the intra-tier aggregate takes its own 450 Mbps "
        "[least C2->Z, TAG, k >= 1]",
        _tag_floor("c2_to_z", 1), low=450.0 - 1e-6, paper=450.0,
    ),
    # pytest.approx's default tolerance: a relative 1e-6.
    registry.Claim(
        "Fig. 13",
        "the hose baseline degrades as 900 reserved + 100 spare Mbps split "
        "TCP-style over k+1 senders [X->Z x (k+1), hose, largest k]",
        _hose_share, low=1000.0 * (1 - 1e-6), high=1000.0 * (1 + 1e-6),
    ),
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
    claims=CLAIMS,
)
