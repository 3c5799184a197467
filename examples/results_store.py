"""The results store end to end: cache, resume, CIs.

Runs one seed of a small fig08 grid against a persistent store, as an
interrupted sweep would have left it, then the whole grid (only the
missing trials execute) and the whole grid again (pure cache hits), and
renders seed-replicated mean ± bootstrap-CI statistics from the store.

Run with:  PYTHONPATH=src python examples/results_store.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.engine import Engine, registry
from repro.results import (
    ResultStore,
    aggregate,
    aggregate_chart,
    aggregate_table,
    samples_from_store,
)


def main() -> None:
    scenario = registry.get("fig08").scenario.override(
        pods=1, arrivals=60, loads=(0.3, 0.6, 0.9), seeds=(0, 1, 2)
    )
    engine = Engine()

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)

        # -- persistent + resumable -----------------------------------
        store = ResultStore(tmp_path / "runs.sqlite")
        partial = engine.run(scenario.override(seeds=(0,)), store=store)
        first = engine.run(scenario, store=store)
        print(
            f"resumed run: {first.executed} executed, "
            f"{first.cache_hits} cached ({first.elapsed:.2f}s)"
        )
        assert first.cache_hits == len(partial), "seed 0 must come from the store"
        second = engine.run(scenario, store=store)
        print(
            f"second run : {second.executed} executed, "
            f"{second.cache_hits} cached ({second.elapsed:.2f}s)"
        )
        assert second.executed == 0, "second pass must be pure cache hits"

        # -- seed-replicated statistics -------------------------------
        aggregates = aggregate(
            samples_from_store(store, scenario=scenario.name),
            metric="bw_rejection_rate",
        )
        print()
        aggregate_table(
            aggregates, "fig08 — BW rejection across 3 seeds (95% CI)"
        ).show()
        chart = aggregate_chart(aggregates, "bw_rejection_rate")
        if chart:
            print(chart)


if __name__ == "__main__":
    main()
