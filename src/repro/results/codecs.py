"""Per-kind payload codecs for the results store.

Every trial kind registers exactly one codec alongside its runner: a
``to_payload`` that lowers the runner's return value into JSON-able
primitives, a ``from_payload`` that rebuilds an equal object, a
``metrics`` extractor naming the scalar series the aggregation layer can
average across seeds, and an integer ``version``.

The version participates in the trial fingerprint
(:func:`repro.results.fingerprint.trial_fingerprint`): bump it whenever
the payload schema changes shape and every stored entry of that kind is
transparently invalidated — the next run recomputes and ``repro results
gc`` reclaims the stale rows.  Kinds without a registered codec
fingerprint at version 0 and cannot be persisted.

The invariant the round-trip tests pin: for every registered kind,
``from_payload(json.loads(json.dumps(to_payload(p)))) == p``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ResultsError

__all__ = [
    "Codec",
    "codec_for",
    "codec_names",
    "codec_version",
    "register_codec",
]


@dataclass(frozen=True)
class Codec:
    """How one trial kind's payload is persisted and summarized."""

    kind: str
    version: int
    to_payload: Callable[[Any], Any]
    from_payload: Callable[[Any], Any]
    metrics: Callable[[Any], dict[str, float]]

    def encode(self, payload: Any) -> str:
        """Canonical JSON text for the store (sorted keys: merge-stable)."""
        return json.dumps(
            self.to_payload(payload), sort_keys=True, separators=(",", ":")
        )

    def decode(self, text: str) -> Any:
        return self.from_payload(json.loads(text))


_CODECS: dict[str, Codec] = {}


def register_codec(
    kind: str,
    *,
    version: int,
    to_payload: Callable[[Any], Any],
    from_payload: Callable[[Any], Any],
    metrics: Callable[[Any], dict[str, float]] | None = None,
) -> Codec:
    """Register (or replace) the payload codec for ``kind``."""
    if not kind:
        raise ResultsError("codec kind must be non-empty")
    if version < 1:
        raise ResultsError(f"codec version must be >= 1, got {version}")
    codec = Codec(kind, version, to_payload, from_payload, metrics or (lambda p: {}))
    _CODECS[kind] = codec
    return codec


def codec_for(kind: str) -> Codec:
    codec = _CODECS.get(kind)
    if codec is None:
        raise ResultsError(
            f"no payload codec registered for kind {kind!r}; persisting it "
            f"needs register_codec() — registered: {codec_names()}"
        )
    return codec


def codec_version(kind: str) -> int:
    """The kind's codec version, 0 when no codec is registered."""
    codec = _CODECS.get(kind)
    return 0 if codec is None else codec.version


def codec_names() -> tuple[str, ...]:
    return tuple(sorted(_CODECS))


# ----------------------------------------------------------------------
# Built-in codecs, one per kind in repro.engine.runners.RUNNERS.
# ----------------------------------------------------------------------


def _identity(payload: Any) -> Any:
    return payload


def _rejection_to(payload) -> dict:
    # Persisted payloads are canonical: runtime_seconds is a wall-clock
    # measurement the repo excludes from identity (_TIMING_FIELDS), and
    # zeroing it here makes "equal fingerprint => equal payload bytes"
    # hold across executions — serial vs parallel runs and per-shard
    # stores become byte-identical, which is what makes `repro results
    # merge` reproduce a full-matrix store exactly.
    data = payload.to_dict()
    data["runtime_seconds"] = 0.0
    return data


def _rejection_from(data: dict):
    from repro.simulation.metrics import RunMetrics

    return RunMetrics.from_dict(data)


def _rejection_metrics(payload) -> dict[str, float]:
    return {
        "tenant_rejection_rate": payload.tenant_rejection_rate,
        "vm_rejection_rate": payload.vm_rejection_rate,
        "bw_rejection_rate": payload.bw_rejection_rate,
        "mean_slot_utilization": payload.mean_slot_utilization,
        "mean_bandwidth_utilization": payload.mean_bandwidth_utilization,
        "mean_wcs": payload.wcs.mean,
    }


def _reserved_to(payload) -> dict:
    return {
        "cm_tag": dict(payload.cm_tag),
        "cm_voc": dict(payload.cm_voc),
        "ovoc": dict(payload.ovoc),
        "tenants_deployed": payload.tenants_deployed,
    }


def _reserved_from(data: dict):
    from repro.simulation.runner import ReservedBandwidth

    return ReservedBandwidth(
        cm_tag={k: float(v) for k, v in data["cm_tag"].items()},
        cm_voc={k: float(v) for k, v in data["cm_voc"].items()},
        ovoc={k: float(v) for k, v in data["ovoc"].items()},
        tenants_deployed=int(data["tenants_deployed"]),
    )


def _reserved_metrics(payload) -> dict[str, float]:
    out: dict[str, float] = {"tenants_deployed": float(payload.tenants_deployed)}
    for combo in ("cm_tag", "cm_voc", "ovoc"):
        for level, value in getattr(payload, combo).items():
            out[f"{combo}_{level}_gbps"] = value
    return out


def _inference_from(data: dict) -> dict:
    return {
        "scores": [float(score) for score in data["scores"]],
        "mean": float(data["mean"]),
        "applications": int(data["applications"]),
    }


def _inference_metrics(payload: dict) -> dict[str, float]:
    return {
        "mean_ami": payload["mean"],
        "applications": float(payload["applications"]),
    }


def _runtime_from(data):
    # Unlike rejection, the runtime payload's seconds are NOT zeroed:
    # the wall-clock reading IS the experiment's deliverable (§5.1
    # placement runtime), not incidental timing.  Runtime rows are
    # therefore measurements — re-executions legitimately differ — and
    # the store's byte-identity guarantee applies to the deterministic
    # kinds only (see store.record / store.merge_from).
    if data is None:
        return None
    return {"seconds": float(data["seconds"]), "placed": bool(data["placed"])}


def _runtime_metrics(payload) -> dict[str, float]:
    if payload is None:
        return {}
    return {"seconds": payload["seconds"], "placed": float(payload["placed"])}


def _enforce_to(payload) -> dict:
    return {
        "senders_in_c2": payload.senders_in_c2,
        "x_to_z": payload.x_to_z,
        "c2_to_z": payload.c2_to_z,
    }


def _enforce_from(data: dict):
    from repro.enforcement.scenarios import Fig13Point

    return Fig13Point(
        senders_in_c2=int(data["senders_in_c2"]),
        x_to_z=float(data["x_to_z"]),
        c2_to_z=float(data["c2_to_z"]),
    )


def _enforce_metrics(payload) -> dict[str, float]:
    return {"x_to_z": payload.x_to_z, "c2_to_z": payload.c2_to_z}


def _hose_fail_to(payload) -> dict:
    return {
        "web_to_logic": payload.web_to_logic,
        "db_to_logic": payload.db_to_logic,
        "web_guarantee_met": payload.web_guarantee_met,
    }


def _hose_fail_from(data: dict):
    from repro.enforcement.scenarios import Fig4Outcome

    return Fig4Outcome(
        web_to_logic=float(data["web_to_logic"]),
        db_to_logic=float(data["db_to_logic"]),
        web_guarantee_met=bool(data["web_guarantee_met"]),
    )


def _hose_fail_metrics(payload) -> dict[str, float]:
    return {
        "web_to_logic": payload.web_to_logic,
        "db_to_logic": payload.db_to_logic,
        "web_guarantee_met": float(payload.web_guarantee_met),
    }


def _temporal_from(data: dict) -> dict:
    return {
        "windows": int(data["windows"]),
        "tenants": int(data["tenants"]),
        "admitted": int(data["admitted"]),
        "utilization": [float(value) for value in data["utilization"]],
    }


def _temporal_metrics(payload: dict) -> dict[str, float]:
    tenants = payload["tenants"]
    utilization = payload["utilization"]
    return {
        "admitted": float(payload["admitted"]),
        "admitted_fraction": (
            payload["admitted"] / tenants if tenants else 0.0
        ),
        "peak_window_utilization": max(utilization, default=0.0),
        "mean_window_utilization": (
            sum(utilization) / len(utilization) if utilization else 0.0
        ),
    }


_SERVICE_INT_FIELDS = (
    "arrivals",
    "accepted",
    "rejected",
    "departures",
    "vms_total",
    "vms_rejected",
    "cohorts",
    "max_cohort",
    "cohort",
)

_SERVICE_FLOAT_FIELDS = (
    "bw_total",
    "bw_rejected",
    "rejection_rate",
    "windowed_rejection_rate",
)


def _service_to(payload: dict) -> dict:
    # The whole "timing" block is wall clock (a _TIMING_FIELDS member):
    # zero it like rejection's runtime_seconds so equal fingerprints mean
    # equal stored bytes across executions.
    data = dict(payload)
    data["timing"] = {key: 0.0 for key in data["timing"]}
    return data


def _service_from(data: dict) -> dict:
    out = {field: int(data[field]) for field in _SERVICE_INT_FIELDS}
    for field in _SERVICE_FLOAT_FIELDS:
        out[field] = float(data[field])
    utilization = data["utilization"]
    out["utilization"] = {
        "samples": int(utilization["samples"]),
        **{
            key: float(utilization[key])
            for key in ("mean_slot", "last_slot", "mean_bw", "last_bw")
        },
    }
    out["timing"] = {key: float(value) for key, value in data["timing"].items()}
    out["load_profile"] = str(data["load_profile"])
    out["fingerprint"] = str(data["fingerprint"])
    return out


def _service_metrics(payload: dict) -> dict[str, float]:
    arrivals = payload["arrivals"]
    return {
        "rejection_rate": payload["rejection_rate"],
        "windowed_rejection_rate": payload["windowed_rejection_rate"],
        "accepted_fraction": (
            payload["accepted"] / arrivals if arrivals else 0.0
        ),
        "departures": float(payload["departures"]),
        "mean_slot_utilization": payload["utilization"]["mean_slot"],
        "mean_bw_utilization": payload["utilization"]["mean_bw"],
    }


_FAILURE_INT_FIELDS = (
    "placed",
    "placed_vms",
    "failed_servers",
    "failed_switches",
    "failed_links",
    "downed_servers",
    "victims",
    "victim_vms",
    "survivors",
    "replaced",
    "lost",
    "churn_vms",
)


def _failure_to(payload: dict) -> dict:
    # recover_seconds is wall clock (a _TIMING_FIELDS member): zero it in
    # the canonical encoding so equal fingerprints mean equal bytes, as
    # for the rejection kind's runtime_seconds.
    data = dict(payload)
    data["recover_seconds"] = 0.0
    return data


def _failure_from(data: dict) -> dict:
    out = {field: int(data[field]) for field in _FAILURE_INT_FIELDS}
    out["survival_rate"] = float(data["survival_rate"])
    out["recover_seconds"] = float(data["recover_seconds"])
    return out


def _failure_metrics(payload: dict) -> dict[str, float]:
    victims = payload["victims"]
    return {
        "survival_rate": payload["survival_rate"],
        "victims": float(victims),
        "replaced_fraction": payload["replaced"] / victims if victims else 1.0,
        "lost": float(payload["lost"]),
        "churn_vms": float(payload["churn_vms"]),
        "recover_seconds": payload["recover_seconds"],
    }


def _survey_from(data: dict) -> dict:
    # JSON lowers tuples to lists; the runner emits tuple rows, so the
    # round-trip must restore them for payload equality.
    return {
        "workload_rows": [tuple(row) for row in data["workload_rows"]],
        "datacenter_rows": [tuple(row) for row in data["datacenter_rows"]],
        "interactive_median": float(data["interactive_median"]),
        "batch_median": float(data["batch_median"]),
    }


register_codec(
    "rejection",
    version=1,
    to_payload=_rejection_to,
    from_payload=_rejection_from,
    metrics=_rejection_metrics,
)
register_codec(
    "reserved",
    version=1,
    to_payload=_reserved_to,
    from_payload=_reserved_from,
    metrics=_reserved_metrics,
)
register_codec(
    "inference",
    version=1,
    to_payload=_identity,
    from_payload=_inference_from,
    metrics=_inference_metrics,
)
register_codec(
    "runtime",
    version=1,
    to_payload=_identity,
    from_payload=_runtime_from,
    metrics=_runtime_metrics,
)
register_codec(
    "enforce",
    version=1,
    to_payload=_enforce_to,
    from_payload=_enforce_from,
    metrics=_enforce_metrics,
)
register_codec(
    "hose_fail",
    version=1,
    to_payload=_hose_fail_to,
    from_payload=_hose_fail_from,
    metrics=_hose_fail_metrics,
)
register_codec(
    "temporal",
    version=1,
    to_payload=_identity,
    from_payload=_temporal_from,
    metrics=_temporal_metrics,
)
register_codec(
    "service",
    version=1,
    to_payload=_service_to,
    from_payload=_service_from,
    metrics=_service_metrics,
)
register_codec(
    "failure",
    version=1,
    to_payload=_failure_to,
    from_payload=_failure_from,
    metrics=_failure_metrics,
)
register_codec(
    "survey",
    version=1,
    to_payload=_identity,
    from_payload=_survey_from,
)
def _telemetry_from(data: dict) -> dict:
    return {
        "label": str(data["label"]),
        "phases": {
            name: {"count": int(p["count"]), "seconds": float(p["seconds"])}
            for name, p in data["phases"].items()
        },
        "counters": {name: int(v) for name, v in data["counters"].items()},
        "events": [list(event) for event in data["events"]],
        "dropped_events": int(data["dropped_events"]),
    }


def _telemetry_metrics(payload: dict) -> dict[str, float]:
    """Phase timings and counter totals as aggregatable scalar series.

    Namespaced (``phase_*`` / ``counter_*``) so `repro results show` can
    present a scenario's wall-clock breakdown next to its trial metrics
    without the two colliding.
    """
    out: dict[str, float] = {}
    for name, phase in payload["phases"].items():
        out[f"phase_{name}_seconds"] = float(phase["seconds"])
        out[f"phase_{name}_count"] = float(phase["count"])
    for name, value in payload["counters"].items():
        out[f"counter_{name}"] = float(value)
    return out


# "telemetry" rows are per-trial trace exports (repro.results.telemetry),
# written by Engine.run when instrumentation is on.  The codec registers
# here so every store operation (gc in particular) sees it without
# importing the telemetry layer.
register_codec(
    "telemetry",
    version=1,
    to_payload=_identity,
    from_payload=_telemetry_from,
    metrics=_telemetry_metrics,
)
