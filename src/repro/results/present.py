"""CI-aware presentation: aggregates rendered through _table/_chart.

Bridges the aggregation layer to the existing experiment presenters: a
grid point that was run under several seeds renders as ``mean [low,
high]`` cells (95% bootstrap CI) and the sweep charts grow ``:``
confidence bands.  Experiment modules call
:func:`seed_replicated_summary` from their presenters; the ``repro
results`` CLI uses the table/chart builders directly on a store.
:func:`claim_table` checks a scenario's registered
:class:`~repro.engine.registry.Claim` rows against a finished run.

The ``repro.experiments`` helpers are imported lazily so that importing
:mod:`repro.results` does not drag in (and register) every experiment
module.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.engine.scenario import ScenarioResult, TrialResult
from repro.results.aggregate import (
    Aggregate,
    aggregate,
    bootstrap_ci,
    samples_from_results,
)

__all__ = [
    "aggregate_chart",
    "aggregate_table",
    "claim_table",
    "seed_replicated_summary",
    "store_summary_table",
]


def aggregate_table(aggregates: Sequence[Aggregate], title: str):
    """Aggregates as a text table, one row per (grid point, metric)."""
    from repro.experiments._table import Table, format_mean_ci

    table = Table(
        title,
        ("variant", "topology", "load", "bmax", "x", "metric", "seeds",
         "mean [95% CI]"),
    )
    for agg in aggregates:
        table.add(
            agg.variant,
            agg.topology,
            f"{agg.load:g}",
            f"{agg.bmax:g}",
            "-" if agg.x is None else str(agg.x),
            agg.metric,
            agg.n,
            format_mean_ci(agg.mean, agg.ci_low, agg.ci_high),
        )
    return table


def _sweep_axis(aggregates: Sequence[Aggregate]) -> str | None:
    """The numeric axis that actually varies across the grid points."""
    for axis in ("load", "bmax", "x"):
        values = {agg.axis_values[axis] for agg in aggregates}
        if None not in values and len(values) > 1:
            return axis
    return None


def aggregate_chart(
    aggregates: Sequence[Aggregate],
    metric: str,
    *,
    axis: str | None = None,
) -> str | None:
    """Mean-per-variant sweep chart with CI bands, or ``None`` when the
    grid has no varying numeric axis to sweep along."""
    from repro.experiments._chart import line_chart

    selected = [agg for agg in aggregates if agg.metric == metric]
    if not selected:
        return None
    axis = axis or _sweep_axis(selected)
    if axis is None:
        return None
    series: dict[str, list[tuple[float, float]]] = {}
    bands: dict[str, list[tuple[float, float, float]]] = {}
    for agg in selected:
        at = agg.axis_values[axis]
        if at is None:
            continue
        series.setdefault(agg.variant, []).append((at, agg.mean))
        bands.setdefault(agg.variant, []).append((at, agg.ci_low, agg.ci_high))
    if not series:
        return None
    return line_chart(
        series,
        title=f"{metric} vs {axis} (mean, : = 95% CI)",
        x_label=axis,
        bands=bands,
    )


def seed_replicated_summary(
    result: ScenarioResult, *, metric: str, axis: str | None = None
) -> str | None:
    """Mean ± CI rendering of a multi-seed run, ``None`` for single-seed.

    The hook experiment presenters call after their per-trial output:
    with one seed there is nothing to aggregate and the summary stays
    silent; with a seed grid it returns a table plus (when the scenario
    sweeps a numeric axis) a banded chart.
    """
    seeds = {r.trial.seed for r in result}
    if len(seeds) < 2:
        return None
    aggregates = aggregate(samples_from_results(result.results), metric=metric)
    if not aggregates:
        return None
    name = result.scenario.name
    table = aggregate_table(
        aggregates, f"{name} — {metric} across {len(seeds)} seeds (95% CI)"
    )
    parts = [table.to_text()]
    chart = aggregate_chart(aggregates, metric, axis=axis)
    if chart:
        parts.append(chart)
    return "\n\n".join(parts)


def claim_table(claims: Sequence, result: ScenarioResult):
    """The paper's claims checked against ``result``: one row per claim.

    Each claim is measured on every seed's trials separately, handed to
    it as a :class:`ScenarioResult` of that seed alone.  Its verdict is
    ``OKAY`` only when every seed lies inside the bounds, ``DEVIATES``
    otherwise, and ``n/a`` when the grid lacks the points it needs.  The
    measured cell is the mean, plus its 95% bootstrap CI and how many
    seeds held when there are several.  ``None`` when the scenario
    declares no claims.
    """
    from repro.experiments._table import Table, format_mean_ci

    if not claims:
        return None
    seeds: dict[int, list[TrialResult]] = {}
    for trial_result in result:
        seeds.setdefault(trial_result.trial.seed, []).append(trial_result)
    runs = [ScenarioResult(result.scenario, seeds[seed]) for seed in sorted(seeds)]
    table = Table(
        f"{result.scenario.name} — the paper's claims",
        ("verdict", "section", "measured", "bound", "paper", "claim"),
    )
    for claim in claims:
        values = [claim.measure(run) for run in runs]
        if None in values:
            verdict, measured = "n/a", "-"
        else:
            held = sum(claim.holds(value) for value in values)
            verdict = "OKAY" if held == len(values) else "DEVIATES"
            measured = format_mean_ci(
                float(np.mean(values)), *bootstrap_ci(values), fmt="{:.4g}"
            )
            if len(values) > 1:
                measured += f" ({held}/{len(values)} seeds)"
        paper = "-" if claim.paper is None else f"{claim.paper:g}"
        table.add(verdict, claim.section, measured, claim.bound, paper, claim.text)
    return table


def store_summary_table(store):
    """`repro results list` rollup: rows and compute time per scenario."""
    from repro.experiments._table import Table

    table = Table(
        f"results store {store.path}",
        ("scenario", "kind", "rows", "compute (s)"),
    )
    for scenario, kind, count, elapsed in store.summary():
        table.add(scenario, kind, count, f"{elapsed:.2f}")
    return table
