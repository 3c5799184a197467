"""Seed-replicated aggregation: mean ± bootstrap confidence intervals.

The store accumulates one row per (grid point, seed).  This layer groups
rows by grid point — (scenario, variant, topology, load, B_max, x) —
collects each codec-declared scalar metric across the seed replicas, and
summarizes it as a mean with a percentile-bootstrap confidence interval.

Everything is deterministic: replicas are ordered by seed before
resampling and the bootstrap RNG seed is fixed, so aggregating a store
is bit-identical to aggregating the in-memory results of the run that
filled it, serial or parallel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from repro.engine.scenario import TrialResult
from repro.results.codecs import codec_for

__all__ = [
    "Aggregate",
    "MetricSample",
    "aggregate",
    "bootstrap_ci",
    "samples_from_results",
    "samples_from_store",
]

_BOOTSTRAP_SEED = 0x5EED
_RESAMPLES = 1000


@dataclass(frozen=True)
class MetricSample:
    """One trial's scalar metrics, keyed by its grid point and seed."""

    scenario: str
    variant: str
    topology: str
    load: float
    bmax: float
    x: Any
    seed: int
    metrics: dict[str, float]

    @property
    def point(self) -> tuple:
        """The grid-point grouping key (everything but the seed)."""
        return (
            self.scenario,
            self.variant,
            self.topology,
            self.load,
            self.bmax,
            json.dumps(self.x),
        )


@dataclass(frozen=True)
class Aggregate:
    """One metric at one grid point, summarized across seed replicas."""

    scenario: str
    variant: str
    topology: str
    load: float
    bmax: float
    x: Any
    metric: str
    n: int
    mean: float
    ci_low: float
    ci_high: float

    @property
    def axis_values(self) -> dict[str, float | None]:
        """Numeric sweep-axis candidates for charting."""
        x = self.x if isinstance(self.x, (int, float)) else None
        return {"load": self.load, "bmax": self.bmax, "x": x}


def samples_from_results(results: Iterable[TrialResult]) -> list[MetricSample]:
    """Metric samples from in-memory engine results (no store needed)."""
    return [
        MetricSample(
            scenario=r.trial.scenario,
            variant=r.trial.variant.name,
            topology=r.trial.topology.label,
            load=r.trial.load,
            bmax=r.trial.bmax,
            x=r.trial.x,
            seed=r.trial.seed,
            metrics=codec_for(r.trial.kind).metrics(r.payload),
        )
        for r in results
    ]


def samples_from_store(store, *, scenario: str | None = None) -> list[MetricSample]:
    """Metric samples decoded from a :class:`ResultStore`."""
    return [
        MetricSample(
            scenario=row.scenario,
            variant=row.variant,
            topology=row.topology,
            load=row.load,
            bmax=row.bmax,
            x=row.x,
            seed=row.seed,
            metrics=row.metrics(),
        )
        for row in store.rows(scenario=scenario)
    ]


def bootstrap_ci(
    values: Sequence[float],
    *,
    confidence: float = 0.95,
) -> tuple[float, float]:
    """Percentile-bootstrap CI of the mean of ``values`` (deterministic).

    With fewer than two replicas there is nothing to resample: the
    interval degenerates to the point estimate.
    """
    data = np.asarray(values, dtype=float)
    if data.size < 2:
        mean = float(data.mean()) if data.size else 0.0
        return (mean, mean)
    rng = np.random.default_rng(_BOOTSTRAP_SEED)
    draws = rng.integers(0, data.size, size=(_RESAMPLES, data.size))
    means = data[draws].mean(axis=1)
    tail = (1.0 - confidence) / 2.0 * 100.0
    low, high = np.percentile(means, [tail, 100.0 - tail])
    return (float(low), float(high))


def aggregate(
    samples: Iterable[MetricSample],
    *,
    metric: str | None = None,
) -> list[Aggregate]:
    """Group samples by grid point and summarize metrics across seeds.

    ``metric`` restricts the output to one named series; by default every
    metric the kind's codec declares is aggregated.  Intervals are 95%
    bootstrap CIs.  Output order is deterministic: sorted by grid point,
    then metric name.
    """
    groups: dict[tuple, list[MetricSample]] = {}
    for sample in samples:
        groups.setdefault(sample.point, []).append(sample)

    out: list[Aggregate] = []
    for point in sorted(groups):
        replicas = sorted(groups[point], key=lambda s: s.seed)
        names = sorted({name for s in replicas for name in s.metrics})
        if metric is not None:
            names = [name for name in names if name == metric]
        first = replicas[0]
        for name in names:
            values = [s.metrics[name] for s in replicas if name in s.metrics]
            low, high = bootstrap_ci(values)
            out.append(
                Aggregate(
                    scenario=first.scenario,
                    variant=first.variant,
                    topology=first.topology,
                    load=first.load,
                    bmax=first.bmax,
                    x=first.x,
                    metric=name,
                    n=len(values),
                    mean=float(np.mean(values)),
                    ci_low=low,
                    ci_high=high,
                )
            )
    return out
