"""Payload codecs for the results store: one rule for every trial kind.

A kind registers a ``version``, a ``metrics`` extractor (the scalar
series aggregation averages across seeds, exported as ``metric_*``
columns) and, when its runner returns a dataclass, that ``payload_type``.
:meth:`Codec.encode` lowers any payload (a dataclass to a dict of its
fields, tuples to lists, recursively), zeroes each top-level wall-clock
field of ``_TIMING_FIELDS`` so that equal fingerprints mean equal payload
bytes across serial, parallel and sharded runs — except in
``SERIAL_ONLY_KINDS`` (``runtime``), whose reading *is* the payload —
and writes canonical JSON.  :meth:`Codec.decode` is ``json.loads`` plus
a rebuild of ``payload_type`` from its resolved field types; any other
payload is its JSON value.  Tests pin ``decode(encode(p)) == p``.

The version participates in the trial fingerprint: bump it whenever the
payload schema changes shape and every stored entry of that kind is
invalidated; ``repro results gc`` reclaims the stale rows.  Kinds
without a codec fingerprint at version 0 and cannot be persisted.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from typing import Any, Callable

from repro.engine.runners import SERIAL_ONLY_KINDS
from repro.engine.scenario import _TIMING_FIELDS
from repro.enforcement.scenarios import Fig4Outcome, Fig13Point
from repro.errors import ResultsError
from repro.simulation.metrics import RunMetrics
from repro.simulation.runner import ReservedBandwidth

__all__ = [
    "Codec",
    "codec_for",
    "codec_names",
    "codec_version",
    "register_codec",
]


def _fields(value: Any) -> dict[str, Any]:
    """A dataclass as a dict of its fields, in declaration order.

    The ``default`` hook of :meth:`Codec.encode`'s ``json.dumps``: the
    encoder lowers dicts, lists, tuples (as lists) and scalars itself, and
    asks this hook only about values it cannot encode.
    """
    if not dataclasses.is_dataclass(value):
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return {name: getattr(value, name) for name in _field_types(type(value))}


@functools.cache
def _field_types(cls: type) -> dict[str, Any]:
    """The resolved annotation of each field of dataclass ``cls``, in
    declaration order: the field list both directions walk, built once."""
    hints = typing.get_type_hints(cls)
    return {field.name: hints[field.name] for field in dataclasses.fields(cls)}


def _rebuild(hint: Any, value: Any) -> Any:
    """Decoded JSON ``value`` as the annotation ``hint``: only dataclasses
    (which must arrive as exactly their own fields) and lists of them are
    rebuilt; any other value is already what JSON gives back."""
    if dataclasses.is_dataclass(hint):
        types = _field_types(hint)
        if value.keys() != types.keys():  # AttributeError if not an object
            raise ValueError(
                f"{hint.__name__} has fields {list(types)}, not {list(value)}"
            )
        return hint(**{name: _rebuild(types[name], value[name]) for name in types})
    item = typing.get_args(hint)[0] if typing.get_origin(hint) is list else None
    if dataclasses.is_dataclass(item):
        return [_rebuild(item, element) for element in value]
    return value


@dataclasses.dataclass(frozen=True)
class Codec:
    """How one trial kind's payload is persisted and summarized."""

    kind: str
    version: int
    metrics: Callable[[Any], dict[str, float]]
    payload_type: type | None = None

    def encode(self, payload: Any) -> str:
        """Canonical JSON text for the store (sorted keys: merge-stable)."""
        data = _fields(payload) if dataclasses.is_dataclass(payload) else payload
        if isinstance(data, dict) and self.kind not in SERIAL_ONLY_KINDS:
            data = dict(data)  # zero a copy: the caller's payload stays as is
            for key in _TIMING_FIELDS.intersection(data):
                timing = data[key]
                data[key] = (
                    dict.fromkeys(timing, 0.0) if isinstance(timing, dict) else 0.0
                )
        return json.dumps(
            data, sort_keys=True, separators=(",", ":"), default=_fields
        )

    def decode(self, text: str) -> Any:
        """The payload ``text`` encodes; raises if it encodes none."""
        return _rebuild(self.payload_type, json.loads(text))


_CODECS: dict[str, Codec] = {}


def register_codec(
    kind: str,
    *,
    version: int,
    metrics: Callable[[Any], dict[str, float]] | None = None,
    payload_type: type | None = None,
) -> Codec:
    """Register (or replace) the payload codec for ``kind``.

    ``payload_type`` is the dataclass the kind's runner returns, if any.
    """
    if not kind:
        raise ResultsError("codec kind must be non-empty")
    if version < 1:
        raise ResultsError(f"codec version must be >= 1, got {version}")
    codec = Codec(kind, version, metrics or (lambda p: {}), payload_type)
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


# Built-in codecs, one per kind in repro.engine.runners.RUNNERS.


def _rejection_metrics(payload) -> dict[str, float]:
    return {
        "tenant_rejection_rate": payload.tenant_rejection_rate,
        "vm_rejection_rate": payload.vm_rejection_rate,
        "bw_rejection_rate": payload.bw_rejection_rate,
        "mean_slot_utilization": payload.mean_slot_utilization,
        "mean_bandwidth_utilization": payload.mean_bandwidth_utilization,
        "mean_wcs": payload.wcs.mean,
    }


def _reserved_metrics(payload) -> dict[str, float]:
    out: dict[str, float] = {"tenants_deployed": float(payload.tenants_deployed)}
    for combo in ("cm_tag", "cm_voc", "ovoc"):
        for level, value in getattr(payload, combo).items():
            out[f"{combo}_{level}_gbps"] = value
    return out


def _inference_metrics(payload: dict) -> dict[str, float]:
    return {
        "mean_ami": payload["mean"],
        "applications": float(payload["applications"]),
    }


def _runtime_metrics(payload) -> dict[str, float]:
    if payload is None:
        return {}
    return {"seconds": payload["seconds"], "placed": float(payload["placed"])}


def _enforce_metrics(payload) -> dict[str, float]:
    # float(): a rate summed over no flows is the int 0, stored as "0".
    return {"x_to_z": float(payload.x_to_z), "c2_to_z": float(payload.c2_to_z)}


def _hose_fail_metrics(payload) -> dict[str, float]:
    return {
        "web_to_logic": float(payload.web_to_logic),
        "db_to_logic": float(payload.db_to_logic),
        "web_guarantee_met": float(payload.web_guarantee_met),
    }


def _temporal_metrics(payload: dict) -> dict[str, float]:
    tenants = payload["tenants"]
    utilization = payload["utilization"]
    total = 0  # not sum(): compensated from Python 3.12, exports are pinned
    for value in utilization:
        total += value
    return {
        "admitted": float(payload["admitted"]),
        "admitted_fraction": (
            payload["admitted"] / tenants if tenants else 0.0
        ),
        "peak_window_utilization": max(utilization, default=0.0),
        "mean_window_utilization": (
            total / len(utilization) if utilization else 0.0
        ),
    }


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


# kind: (metrics extractor, the dataclass its runner returns, if any)
_BUILTIN_CODECS = {
    "rejection": (_rejection_metrics, RunMetrics),
    "reserved": (_reserved_metrics, ReservedBandwidth),
    "inference": (_inference_metrics, None),
    "runtime": (_runtime_metrics, None),
    "enforce": (_enforce_metrics, Fig13Point),
    "hose_fail": (_hose_fail_metrics, Fig4Outcome),
    "temporal": (_temporal_metrics, None),
    "service": (_service_metrics, None),
    "failure": (_failure_metrics, None),
    "survey": (None, None),
    # Per-trial trace exports (repro.results.telemetry), registered here
    # so every store operation (gc in particular) sees them.
    "telemetry": (_telemetry_metrics, None),
}
for _kind, (_metrics, _type) in _BUILTIN_CODECS.items():
    register_codec(_kind, version=1, metrics=_metrics, payload_type=_type)
