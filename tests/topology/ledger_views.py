"""Read-outs of a ledger's private state that only the tests take."""

from __future__ import annotations

import numpy as np

from repro.temporal.admission import TemporalLedger


def overcommitted_nodes(ledger) -> frozenset[int]:
    """Ids of the uplinks currently reserved beyond their capacity."""
    return frozenset(ledger._over)


def plane_matrices(ledger) -> tuple[np.ndarray, np.ndarray]:
    """``(W × num_nodes)`` numpy snapshots of a temporal ledger's blocks."""
    shape = (ledger.flat.size, ledger.windows)
    return (
        np.asarray(ledger._up).reshape(shape).T.copy(),
        np.asarray(ledger._down).reshape(shape).T.copy(),
    )


def ledger_snapshot(ledger) -> tuple:
    """Copies of the slot arrays, the bandwidth blocks (every W plane and
    the maxima, for a temporal ledger) and the over-set."""
    if isinstance(ledger, TemporalLedger):
        bandwidth = (ledger._up, ledger._down, ledger._max_up, ledger._max_down)
    else:
        bandwidth = (ledger._used_up, ledger._used_down)
    return (
        list(ledger._used_slots),
        list(ledger._free_subtree),
        [list(column) for column in bandwidth],
        set(ledger._over),
    )
