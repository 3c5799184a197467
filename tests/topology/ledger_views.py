"""Read-outs of a ledger's private state that only the tests take."""

from __future__ import annotations

import numpy as np


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
