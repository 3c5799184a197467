"""The claim plumbing: every registered claim measures, prints, and can fail.

Tier-1 checks the machinery at a tiny grid, where a claim may well read
``DEVIATES`` (the verdicts themselves are gated at bench scale by
``benchmarks/test_paper_claims.py``).  No timing is asserted.
"""

from __future__ import annotations

import math
import re
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.engine import (
    Engine,
    Scenario,
    ScenarioResult,
    TrialResult,
    kind_axes,
    registry,
)
from repro.results.present import claim_table

VERDICT = re.compile(r"^(OKAY|DEVIATES|n/a) ", re.M)


def tiny(scenario: Scenario) -> Scenario:
    """One seed, one pod, at most 80 arrivals, the smallest x."""
    axes = kind_axes(scenario.kind)
    scenario = scenario.override(seeds=scenario.seeds[:1], xs=scenario.xs[:1])
    if "pods" in axes:
        scenario = scenario.override(pods=1)
    if "arrivals" in axes:
        scenario = scenario.override(arrivals=min(scenario.arrivals, 80))
    if scenario.kind == "inference":
        scenario = scenario.override(
            params=(("max_applications", 4), ("max_vms", 30), ("noise_fraction", 0.05))
        )
    return scenario


@pytest.mark.parametrize("name", registry.names())
def test_every_claim_measures_and_prints_one_line(name, capsys):
    entry = registry.get(name)
    result = Engine(n_jobs=1).run(tiny(entry.scenario))
    entry.present(result)
    assert entry.scenario.title.split(" — ")[0] in capsys.readouterr().out
    for claim in entry.claims:
        value = claim.measure(result)
        assert value is None or isinstance(value, float), (claim.text, value)
    table = claim_table(entry.claims, result)
    if table is not None:
        table.show()
    assert len(VERDICT.findall(capsys.readouterr().out)) == len(entry.claims)


def test_only_the_failure_scenario_checks_no_claim():
    # A registered scenario checks what the paper states about it; the
    # failure sweep is the one still without its claim rows.
    unclaimed = {entry.scenario.name for entry in registry.entries() if not entry.claims}
    assert unclaimed == {"failure"}


def _run(capsys, *argv: str) -> str:
    assert main(["run", *argv]) == 0
    return capsys.readouterr().out


def test_a_claim_without_its_comparison_is_not_applicable(capsys):
    out = _run(capsys, "fig10", "--pods", "1", "--arrivals", "40", "--placers", "cm")
    verdicts = VERDICT.findall(out)
    assert verdicts == ["n/a"] * len(registry.get("fig10").claims)


def test_a_whole_grid_run_prints_the_claims_after_the_tables(capsys):
    out = _run(capsys, "fig04")
    assert out.index("web->logic") < out.index("fig04 — the paper's claims")
    assert VERDICT.findall(out) == ["OKAY"] * 3


def _seeded(values) -> ScenarioResult:
    """A fake run: one trial result per seed, its payload the value."""
    scenario = Scenario("fake", "fake", kind="fake", seeds=tuple(range(len(values))))
    results = [
        TrialResult(trial, value, 0.0)
        for trial, value in zip(scenario.expand(), values)
    ]
    return ScenarioResult(scenario, results)


def test_fig11_claims_hold_at_every_bmax():
    # Every CM+HA requirement is met at B_max 800 and missed at B_max 400:
    # the 400 point must not be hidden behind the 800 one.
    scenario = registry.get("fig11").scenario.override(
        bmaxes=(400.0, 800.0), seeds=(0,)
    )

    def metrics(trial):
        required = trial.variant.ha.required_wcs
        if trial.bmax == 800.0:
            return SimpleNamespace(
                wcs=SimpleNamespace(minimum=min(required, 0.5), mean=required),
                bw_rejection_rate=0.1,
            )
        return SimpleNamespace(
            wcs=SimpleNamespace(minimum=0.0, mean=-required),
            bw_rejection_rate=required,
        )

    results = [TrialResult(t, metrics(t), 0.0) for t in scenario.expand()]
    both = ScenarioResult(scenario, results)
    at_800 = ScenarioResult(scenario, [r for r in results if r.trial.bmax == 800.0])
    claims = registry.get("fig11").claims
    assert [c.holds(c.measure(at_800)) for c in claims] == [True] * 3
    assert [c.holds(c.measure(both)) for c in claims] == [False] * 3


def _payload(trials):
    (trial_result,) = trials
    return trial_result.payload


class TestVerdicts:
    def test_every_seed_must_hold(self):
        claim = registry.Claim("§0", "a value above 1", _payload, low=1.0)
        (row,) = claim_table((claim,), _seeded([2.0, 3.0, 0.5])).rows
        verdict, section, measured, bound, paper, text = row
        assert (verdict, bound, paper) == ("DEVIATES", ">= 1", "-")
        assert measured.startswith("1.833 [") and measured.endswith("(2/3 seeds)")
        (row,) = claim_table((claim,), _seeded([2.0, 3.0])).rows
        assert row[0] == "OKAY" and row[2].endswith("(2/2 seeds)")

    def test_one_seed_prints_the_bare_value(self):
        claim = registry.Claim("§0", "x", _payload, high=0.2, strict=True, paper=0.2)
        (row,) = claim_table((claim,), _seeded([0.2])).rows
        assert row[:5] == ("DEVIATES", "§0", "0.2", "< 0.2", "0.2")

    def test_a_missing_point_is_not_applicable(self):
        claim = registry.Claim("§0", "x", lambda trials: None, low=0.0)
        (row,) = claim_table((claim,), _seeded([1.0, 2.0])).rows
        assert row[:3] == ("n/a", "§0", "-")

    def test_no_claims_no_table(self):
        assert claim_table((), _seeded([1.0])) is None

    @pytest.mark.parametrize(
        "bounds,strict,text",
        [
            ((0.05, math.inf), True, "> 0.05"),
            ((-math.inf, 1e-9), False, "<= 1e-09"),
            ((0.35, 1.0), False, "in [0.35, 1]"),
            ((0.0, 1.0), True, "in (0, 1)"),
        ],
    )
    def test_bounds_print_as_data(self, bounds, strict, text):
        low, high = bounds
        claim = registry.Claim("§0", "x", _payload, low=low, high=high, strict=strict)
        assert claim.bound == text
        assert claim.holds(low) == (not strict)
