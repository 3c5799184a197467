"""The pinned outputs under CPython 3.12's compensated ``sum()``.

From 3.12 on, builtin ``sum()`` over floats is Neumaier-compensated, so
a float ``sum()`` on a pinned path can change bytes on a newer
interpreter while every test passes on 3.11.  This test emulates the
3.12 algorithm on whatever interpreter runs it: a subprocess gets a
``sitecustomize`` that swaps ``builtins.sum`` for the emulation, checks
the swap is live (``sum([1e16, 1.0, -1e16])`` is ``1.0`` compensated,
``0.0`` plain), and then runs the golden grid (which includes the §3
inference row) and the seed-parity replay.  A failure names the pinned
row whose bytes depend on how ``sum()`` rounds: replace that ``sum()``
with a left-to-right loop.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The float half of CPython 3.12's builtin_sum_impl: ints add exactly
# until the first non-int, exact floats then accumulate with Neumaier's
# compensation (ints add uncompensated), anything else falls back to
# plain left-to-right ``+`` from the compensated partial.
SITECUSTOMIZE = '''
import builtins
import math


def _neumaier_sum(iterable, /, start=0):
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) is int or type(item) is bool:
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total = result
        compensation = 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
                continue
            if isinstance(item, int):
                total += float(item)
                continue
            result = (total + compensation) + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


builtins.sum = _neumaier_sum
'''

PINNED = ("tests/engine/test_golden_equivalence.py", "tests/test_seed_parity.py")

RUNNER = f"""
import sys
import pytest
assert sum([1e16, 1.0, -1e16]) == 1.0, "the compensated sum() is not active"
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *{PINNED!r}]))
"""


def test_pinned_outputs_survive_a_compensated_sum(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(SITECUSTOMIZE)
    path = [str(tmp_path), str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", RUNNER],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
