"""The paper's evaluation, checked claim by claim at bench scale.

Each case is ``repro run <scenario>`` with the overrides below: it prints
the scenario's tables and then its claim table, one line per registered
:class:`~repro.engine.registry.Claim` — the paper's statement, the value
measured here, the bound it must meet and the paper's own number.  A
case passes when every claim reads ``OKAY``: none ``DEVIATES`` and none
is ``n/a`` for want of the grid points it needs.  ``REPRO_BENCH_PODS`` /
``REPRO_BENCH_ARRIVALS`` raise the scale of the cases that take it.
"""

from __future__ import annotations

import re

import pytest

from repro.cli import main
from repro.engine import registry

_SWEEPS = ("fig07", "fig08", "fig09", "fig10", "fig11", "fig12")

# (case id, `repro run` arguments, the bench-scale flags the case takes)
CASES = [
    ("fig01", ["fig01"], ()),
    ("fig04", ["fig04"], ()),
    *((name, [name, "--seeds", "0"], ("--pods", "--arrivals")) for name in _SWEEPS),
    ("fig13", ["fig13", "--max-senders", "5"], ()),
    ("table1-bing", ["table1", "--workload", "bing", "--seeds", "1"], ("--pods",)),
    (
        "table1-synthetic",
        ["table1", "--workload", "synthetic", "--seeds", "2"],
        ("--pods",),
    ),
    (
        "table1-hpcloud",
        ["table1", "--workload", "hpcloud", "--seeds", "3"],
        ("--pods",),
    ),
    (
        "inference",
        ["inference", "--max-vms", "120", "--max-applications", "25", "--seeds", "0"],
        (),
    ),
    ("runtime", ["runtime"], ("--pods",)),
    ("temporal", ["temporal"], ()),
]


def test_every_claim_has_a_case():
    claimed = {entry.name for entry in registry.entries() if entry.claims}
    assert claimed == {argv[0] for _, argv, _ in CASES}


@pytest.mark.parametrize(
    "argv,scaled", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_claims_hold(argv, scaled, bench_pods, bench_arrivals, capsys):
    scale = {"--pods": bench_pods, "--arrivals": bench_arrivals}
    flags = [str(part) for flag in scaled for part in (flag, scale[flag])]
    assert main(["run", *argv, *flags]) == 0
    out = capsys.readouterr().out
    print(out)
    verdicts = re.findall(r"^(OKAY|DEVIATES|n/a) ", out, re.M)
    assert verdicts, "no claim was checked"
    assert set(verdicts) == {"OKAY"}
