"""Instrumentation parity: tracing ON must be bit-identical to OFF.

The observability layer's core contract is that it only *observes*:
counters, spans and per-trial TraceRecorders must never perturb a
placement decision, a payload value, or a trial fingerprint.  This test
re-executes the same golden grid as ``test_golden_equivalence`` — every
placer family, the enforcement kernel, the temporal ledger and the
failure harness — with counters and tracing force-enabled, and asserts
the fingerprints and canonical payload hashes still match the fixture
byte for byte.

A drift here means an instrumented code path changed behaviour (e.g. a
counter bump consuming RNG state or a span reordering a mutation), which
would silently split cached stores into traced and untraced worlds.
"""

from __future__ import annotations

import json

from repro.obs import core
from tests.engine.test_golden_equivalence import FIXTURE, compute_golden


def test_golden_grid_identical_with_instrumentation_enabled():
    expected = json.loads(FIXTURE.read_text())
    with core.enabled_scope() as counters:
        actual = compute_golden()
        assert counters, "instrumentation was on but no counter ever fired"
        # The hot paths really were instrumented during the run.
        for name in ("ledger.slot_mutations", "maxmin.solves",
                     "temporal.journal_ops", "placement.reservation_writes"):
            assert counters.get(name, 0) > 0, f"{name} never fired"
        # Useful / attempted: an unchanged requirement is evaluated, not written.
        assert (
            counters["placement.reservation_writes"]
            <= counters["placement.reservation_updates"]
        )
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        label = f"{want['scenario']}/{want['variant']}@{want['load']}"
        assert got["fingerprint"] == want["fingerprint"], (
            f"{label}: fingerprint changed under instrumentation"
        )
        assert got["payload_sha256"] == want["payload_sha256"], (
            f"{label}: canonical payload changed under instrumentation — "
            f"the obs layer perturbed a placement decision"
        )
