"""Golden-fixture guard: the flat-core refactor is behavior-identical.

``golden_trials.json`` was generated from the pre-refactor (dict/pointer
-walk) implementation of the topology/ledger/placement stack.  For a
small but representative trial grid — plain CM and OVOC, a WCS-guarantee
HA variant, and SecondNet — it records every trial's store fingerprint
and the SHA-256 of its *canonical* payload encoding (wall-clock fields
zeroed by the codec).

The test re-executes the same grid against the current implementation
and asserts both are byte-identical.  Equal fingerprints mean a
store-backed re-run of any scenario against a pre-refactor store stays
100% cache hits; equal payload hashes mean the placement decisions and
metrics themselves did not move.

Regenerate (only when a *deliberate* behavior change lands) with::

    PYTHONPATH=src python tests/engine/test_golden_equivalence.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.engine import Scenario, Variant, registry
from repro.engine.runners import execute_trial
from repro.placement.ha import HaPolicy
from repro.results.codecs import codec_for
from repro.results.fingerprint import trial_fingerprint

FIXTURE = Path(__file__).parent / "golden_trials.json"


def golden_scenarios() -> list[Scenario]:
    """The small grid pinned by the fixture (rejection-heavy paths)."""
    fig08 = registry.get("fig08").scenario.override(
        pods=1, arrivals=120, loads=(0.5, 1.1), seeds=(0,)
    )
    fig11 = registry.get("fig11").scenario.override(
        pods=1,
        arrivals=100,
        seeds=(0,),
        variants=(
            Variant("cm@50%", "cm", HaPolicy(required_wcs=0.5)),
            Variant("ovoc@50%", "ovoc", HaPolicy(required_wcs=0.5)),
        ),
    )
    # SecondNet exercises the per-pipe path-reservation machinery, which
    # has no coverage in fig08/fig11; a high load forces rejections.
    secondnet = registry.get("fig08").scenario.override(
        name="golden-secondnet",
        pods=1,
        arrivals=40,
        loads=(1.5,),
        seeds=(0,),
        variants=(Variant("secondnet"),),
    )
    # The PR 5 planes-on-arrays rebuild: fig13 pins the max-min
    # water-filling kernel (both abstraction modes), temporal pins the
    # W-plane ledger's admission decisions and per-window utilization.
    fig13 = registry.get("fig13").scenario.override(xs=tuple(range(4)))
    temporal = registry.get("temporal").scenario.override(
        xs=(1, 4, 6), params=(("tenants", 18), ("trough", 0.2))
    )
    # The failure kind pins the FailureMask + heterogeneous-fabric stack:
    # load, inject seeded faults, measure survival and re-placement.
    failure = registry.get("failure").scenario.override(
        pods=1,
        arrivals=80,
        xs=(0.05, 0.2),
        seeds=(0,),
        variants=(Variant("cm"), Variant("secondnet")),
    )
    return [fig08, fig11, secondnet, fig13, temporal, failure]


def compute_golden() -> list[dict[str, str]]:
    rows = []
    for scenario in golden_scenarios():
        for trial in scenario.expand():
            result = execute_trial(trial)
            codec = codec_for(trial.kind)
            encoded = codec.encode(result.payload)
            # A stored row read back and re-recorded keeps its bytes.
            assert codec.encode(codec.decode(encoded)) == encoded, trial
            rows.append(
                {
                    "scenario": scenario.name,
                    "variant": trial.variant.name,
                    "load": repr(trial.load),
                    "seed": trial.seed,
                    "fingerprint": trial_fingerprint(trial),
                    "payload_sha256": hashlib.sha256(encoded.encode()).hexdigest(),
                }
            )
    return rows


def test_golden_fingerprints_and_payloads_unchanged():
    expected = json.loads(FIXTURE.read_text())
    actual = compute_golden()
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        label = f"{want['scenario']}/{want['variant']}@{want['load']}"
        assert got["fingerprint"] == want["fingerprint"], (
            f"{label}: trial fingerprint changed — pre-refactor stores "
            f"would miss the cache"
        )
        assert got["payload_sha256"] == want["payload_sha256"], (
            f"{label}: canonical payload changed — placement decisions "
            f"or metrics differ from the pre-refactor implementation"
        )


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(compute_golden(), indent=2) + "\n")
    print(f"wrote {FIXTURE}")
