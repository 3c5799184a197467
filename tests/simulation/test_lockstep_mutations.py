"""The index-vs-scan lockstep can fail: a stale candidate index is caught.

The lockstep suites (``test_churn_equivalence``,
``test_mask_pruned_lockstep``) prove the index equal to the full scan
only if a wrong index would break them.  Each mutation here drops one of
the index's invalidations — the dirty mark a slot release leaves, the
one a restored server leaves — and the lockstep must then diverge.
"""

from __future__ import annotations

import pytest

from repro.topology.builder import three_level_tree
from repro.topology.failures import FailureMask
from repro.topology.ledger import Ledger
from repro.workloads.scaling import scale_pool
from repro.workloads.synthetic import synthetic_pool
from tests.failures.test_mask_pruned_lockstep import (
    ADMISSIONS,
    FAILED_NAMES,
    SPEC,
    _run_stream,
)
from tests.simulation.test_churn_equivalence import (  # noqa: F401 (fixture)
    assert_lockstep,
    workload,
)

PLACERS = ["cm", "secondnet"]


def _detached(ledger, call):
    """``call()`` with ``ledger``'s index detached, so nothing is touched."""
    index = ledger._candidate_index
    ledger._candidate_index = None
    try:
        return call()
    finally:
        ledger._candidate_index = index


@pytest.mark.parametrize("placer_name", PLACERS)
def test_lockstep_catches_a_release_without_touch(
    workload, monkeypatch, placer_name
):
    """Slot releases (departures and rollbacks) leave no dirty mark."""
    apply_slots = Ledger._apply_slots

    def release_skips_touch(self, server_id, count):
        if count < 0:
            return _detached(self, lambda: apply_slots(self, server_id, count))
        return apply_slots(self, server_id, count)

    monkeypatch.setattr(Ledger, "_apply_slots", release_skips_touch)
    topology, pool, events = workload
    with pytest.raises(AssertionError, match="diverged"):
        assert_lockstep(topology, pool, events, placer_name)


def _restore_runs(placer_name):
    """Scan and indexed runs of one masked stream that restores every
    failed node half-way, as ``(outcomes, layouts)`` each."""
    topology = three_level_tree(SPEC)
    pool = scale_pool(list(synthetic_pool()), 0.5)
    return [
        _run_stream(
            topology,
            pool,
            placer_name,
            None,
            use_index=use_index,
            failed=FAILED_NAMES,
            restore_after=ADMISSIONS // 2,
        )[:2]
        for use_index in (False, True)
    ]


@pytest.mark.parametrize("placer_name", PLACERS)
def test_restore_mid_stream_lockstep(placer_name):
    scan, indexed = _restore_runs(placer_name)
    assert scan == indexed
    assert any(scan[0]) and not all(scan[0])


@pytest.mark.parametrize("placer_name", PLACERS)
def test_lockstep_catches_a_restore_without_touch(monkeypatch, placer_name):
    """A server coming back up leaves no dirty mark."""
    on_up = FailureMask._on_up

    def on_up_skips_touch(self, server_id):
        return _detached(self.ledger, lambda: on_up(self, server_id))

    monkeypatch.setattr(FailureMask, "_on_up", on_up_skips_touch)
    scan, indexed = _restore_runs(placer_name)
    assert scan != indexed
