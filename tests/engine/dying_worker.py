"""A ``repro`` command line with one extra scenario whose last trial dies.

Run as a script by ``test_engine.py::TestDeadWorker``: spawn workers
re-import ``__main__``, so the module-level registrations below exist in
every worker process as well.
"""

from __future__ import annotations

import os
import signal
import sys

from repro.cli import main
from repro.engine import Scenario, Trial, Variant, register_runner, registry
from repro.results import register_codec

TRIALS = 5


def run_dying_trial(trial: Trial) -> dict[str, int]:
    if trial.x == TRIALS - 1:
        os.kill(os.getpid(), signal.SIGKILL)  # no exception, no goodbye
    return {"x": trial.x}


register_runner("dying", run_dying_trial)
register_codec("dying", version=1)
registry.register(
    Scenario(
        name="dying",
        title="the last trial kills its own worker",
        kind="dying",
        pool="",
        variants=(Variant("none"),),
        xs=tuple(range(TRIALS)),
    ),
    lambda result: print(f"presented {len(result)} trials"),
)

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
