"""Benchmark configuration.

``test_paper_claims.py`` runs every registered paper table/figure through
``repro run`` at a reduced default scale (so the whole harness finishes
in minutes), prints the rows the paper reports and checks the paper's
claims about them.  Set ``REPRO_BENCH_PODS`` / ``REPRO_BENCH_ARRIVALS``
to raise the scale — ``REPRO_BENCH_PODS=8 REPRO_BENCH_ARRIVALS=10000`` is
the paper's configuration (2048 servers, 10,000 arrivals).
"""

from __future__ import annotations

import os

import pytest


def pytest_configure(config) -> None:
    # The regenerated tables printed by each benchmark ARE the deliverable:
    # surface the captured stdout of passing benchmarks in the report.
    reportchars = getattr(config.option, "reportchars", "") or ""
    if "P" not in reportchars:
        config.option.reportchars = reportchars + "P"


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


@pytest.fixture(scope="session")
def bench_pods() -> int:
    return _env_int("REPRO_BENCH_PODS", 1)


@pytest.fixture(scope="session")
def bench_arrivals() -> int:
    return _env_int("REPRO_BENCH_ARRIVALS", 300)
