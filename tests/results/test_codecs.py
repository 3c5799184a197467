"""Payload codecs: JSON round-trip equality for every registered kind.

``codec_wire.json`` pins, per kind, the exact text each
``PAYLOAD_FACTORIES`` payload encodes to.  Stores on disk, the golden
payload hashes and the bench digests all hash that text, so it may only
change together with the kind's codec version.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.engine import RUNNERS, Scenario, Variant, execute_trial
from repro.enforcement.scenarios import Fig4Outcome, Fig13Point
from repro.errors import ResultsError
from repro.results import codec_for, codec_names, codec_version, register_codec
from repro.results.codecs import _CODECS
from repro.simulation.runner import ReservedBandwidth

WIRE = json.loads((Path(__file__).parent / "codec_wire.json").read_text())


def _trial(kind: str, **overrides):
    scenario = Scenario(
        name="codec-test",
        title="t",
        kind=kind,
        variants=(Variant(overrides.pop("placer", "cm")),),
        loads=(0.4,),
        bmaxes=(800.0,),
        seeds=(0,),
        arrivals=30,
        pods=1,
        **overrides,
    )
    return scenario.expand()[0]


def _rejection_payload():
    # A real simulation payload (wcs + utilization populated), with the
    # wall-clock field zeroed: persisted payloads are canonical because
    # timing is excluded from identity (see codecs module docstring).
    payload = execute_trial(_trial("rejection")).payload
    payload.runtime_seconds = 0.0
    return payload


def _reserved_payload():
    return ReservedBandwidth(
        cm_tag={"server": 1.5, "tor": 0.75, "agg": 0.25},
        cm_voc={"server": 2.5, "tor": 1.25, "agg": 0.5},
        ovoc={"server": 4.0, "tor": 2.0, "agg": 1.0},
        tenants_deployed=123,
    )


def _inference_payload():
    return {"scores": [0.9, 0.75, 1.0], "mean": 0.8833333333333333,
            "applications": 3}


def _runtime_payload():
    return {"seconds": 0.0123, "placed": True}


def _enforce_payload():
    return execute_trial(_trial("enforce", placer="tag", xs=(4,))).payload


def _hose_fail_payload():
    return execute_trial(_trial("hose_fail", placer="hose")).payload


def _survey_payload():
    return execute_trial(_trial("survey")).payload


def _failure_payload():
    # Canonical like _rejection_payload: the wall-clock recovery field is
    # zeroed because the codec excludes timing from persisted identity.
    payload = execute_trial(_trial("failure", xs=(0.1,))).payload
    payload["recover_seconds"] = 0.0
    return payload


def _telemetry_payload():
    # The shape TraceRecorder.export() produces: JSON-native throughout
    # (events are lists, not tuples) so the round-trip is equality.
    return {
        "label": "codec-test/cm#0",
        "phases": {"place": {"count": 3, "seconds": 0.0121},
                   "trial.rejection": {"count": 1, "seconds": 0.5}},
        "counters": {"ledger.slot_mutations": 42, "maxmin.solves": 7},
        "events": [["trial.rejection", 0.0, 500000.0,
                    {"scenario": "codec-test"}],
                   ["place", 10.5, 121.0]],
        "dropped_events": 0,
    }


def _temporal_payload():
    return {
        "windows": 4,
        "tenants": 16,
        "admitted": 11,
        "utilization": [0.25, 0.5, 0.125, 0.0625],
    }


PAYLOAD_FACTORIES = {
    "rejection": _rejection_payload,
    "reserved": _reserved_payload,
    "inference": _inference_payload,
    "runtime": _runtime_payload,
    "enforce": _enforce_payload,
    "hose_fail": _hose_fail_payload,
    "survey": _survey_payload,
    "temporal": _temporal_payload,
    "failure": _failure_payload,
    "telemetry": _telemetry_payload,
}


def test_every_runner_kind_has_a_codec_and_a_roundtrip_case():
    # "telemetry" is not a runner kind: it holds per-trial obs exports
    # (repro run --telemetry), but must still round-trip like any other
    # codec so `repro results gc` never reaps its rows.
    assert set(codec_names()) == set(RUNNERS) | {"telemetry"}
    assert set(PAYLOAD_FACTORIES) == set(codec_names())


@pytest.mark.parametrize("kind", sorted(PAYLOAD_FACTORIES))
def test_payload_roundtrip_equality(kind):
    payload = PAYLOAD_FACTORIES[kind]()
    codec = codec_for(kind)
    # Through the recorded wire text, exactly as the store persists it.
    assert codec.encode(payload) == WIRE[kind]
    decoded = codec.decode(WIRE[kind])
    assert decoded == payload
    assert type(decoded) is type(payload)


@pytest.mark.parametrize("kind", sorted(PAYLOAD_FACTORIES))
def test_encode_is_deterministic_text(kind):
    payload = PAYLOAD_FACTORIES[kind]()
    codec = codec_for(kind)
    assert codec.encode(payload) == codec.encode(payload)
    assert codec.decode(codec.encode(payload)) == payload


def test_runtime_codec_preserves_skipped_trials():
    codec = codec_for("runtime")
    assert codec.decode(codec.encode(None)) is None
    assert codec.metrics(None) == {}


def test_enforce_payload_types_and_metrics():
    payload = _enforce_payload()
    assert isinstance(payload, Fig13Point)
    metrics = codec_for("enforce").metrics(payload)
    assert set(metrics) == {"x_to_z", "c2_to_z"}


def test_rejection_metrics_are_the_paper_series():
    payload = _rejection_payload()
    metrics = codec_for("rejection").metrics(payload)
    assert {"tenant_rejection_rate", "vm_rejection_rate",
            "bw_rejection_rate"} <= set(metrics)
    assert all(isinstance(v, float) for v in metrics.values())


def test_unknown_kind_rejected():
    with pytest.raises(ResultsError, match="no payload codec"):
        codec_for("nope")
    assert codec_version("nope") == 0


def test_codec_registration_validates():
    with pytest.raises(ResultsError, match="version"):
        register_codec("bad", version=0)
    with pytest.raises(ResultsError, match="non-empty"):
        register_codec("", version=1)
    assert "bad" not in _CODECS


def test_hose_fail_payload_roundtrip_is_dataclass():
    payload = _hose_fail_payload()
    assert isinstance(payload, Fig4Outcome)
    codec = codec_for("hose_fail")
    assert codec.decode(codec.encode(payload)) == payload


def test_wall_clock_fields_are_zeroed_except_in_measurement_kinds():
    rejection = _rejection_payload()
    rejection.runtime_seconds = 1.25
    failure = _failure_payload()
    failure["recover_seconds"] = 0.5
    for kind, payload in (("rejection", rejection), ("failure", failure)):
        assert codec_for(kind).encode(payload) == WIRE[kind]
    # The runtime kind's reading is its payload: stored as measured.
    assert '"seconds":0.0123' in codec_for("runtime").encode(_runtime_payload())


def test_an_int_rate_keeps_its_bytes_and_exports_as_a_float():
    # Fig. 13 at x = 0 has no C2 senders: c2_to_z is sum([]) == 0, which
    # JSON writes as "0".  The stored bytes must survive a decode/encode
    # round trip, and the exported metric must still read 0.0.
    codec = codec_for("enforce")
    text = codec.encode(Fig13Point(0, 1000.0, 0))
    assert '"c2_to_z":0,' in text
    decoded = codec.decode(text)
    assert codec.encode(decoded) == text
    metrics = codec.metrics(decoded)
    assert [type(value) for value in metrics.values()] == [float, float]
    hose = codec_for("hose_fail").metrics(Fig4Outcome(0, 0, False))
    assert [type(value) for value in hose.values()] == [float] * 3
