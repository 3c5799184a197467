"""Root pytest configuration: the opt-in ``slow`` marker.

Everything under ``benchmarks/`` runs whole paper tables and is
automatically marked ``slow``; slow tests are skipped unless the run
opts in with ``--runslow`` or ``REPRO_RUN_SLOW=1``.  The tier-1 suite
(``PYTHONPATH=src python -m pytest -x -q``) therefore stays fast while
``python -m pytest --runslow benchmarks`` regenerates every registered
table and figure and checks each of the paper's claims about it.
"""

from __future__ import annotations

import os

import pytest


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run tests marked slow (the benchmark suite)",
    )


def _slow_enabled(config) -> bool:
    return bool(
        config.getoption("--runslow") or os.environ.get("REPRO_RUN_SLOW") == "1"
    )


def pytest_collection_modifyitems(config, items) -> None:
    skip_slow = pytest.mark.skip(
        reason="slow benchmark; opt in with --runslow or REPRO_RUN_SLOW=1"
    )
    run_slow = _slow_enabled(config)
    for item in items:
        if "benchmarks" in item.path.parts:
            item.add_marker(pytest.mark.slow)
        if "slow" in item.keywords and not run_slow:
            item.add_marker(skip_slow)
