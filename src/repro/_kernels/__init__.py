"""The placement hot-loop kernels.

The placement inner loops — the ledger's fused reservation adjusts, the
SecondNet path-link machinery, the per-tag Eq. 1 / VOC requirement
evaluation — live in :mod:`repro._kernels.pyref`; see its docstring for
the exact record shapes and conventions.

Consumers (``topology/ledger.py``, ``temporal/admission.py``,
``placement/state.py``, ``placement/secondnet.py``) call through this
package's module attributes (``_kernels.ledger_adjust(...)``), so a test
can monkeypatch one kernel for every caller at once.
"""

from __future__ import annotations

from repro._kernels.pyref import (
    commit_pipes,
    eq1_requirement,
    expand_edges,
    ledger_adjust,
    path_link_ids,
    pipes_feasible,
    placed_peers,
    rack_order,
    temporal_adjust,
    voc_requirement,
)

__all__ = [
    "backend",
    "commit_pipes",
    "eq1_requirement",
    "expand_edges",
    "ledger_adjust",
    "path_link_ids",
    "pipes_feasible",
    "placed_peers",
    "rack_order",
    "temporal_adjust",
    "voc_requirement",
]

# The benchmark harness records this and refuses a run whose value is
# not the backend it asked for.
backend = "py"
