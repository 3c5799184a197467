"""Declarative scenario definitions for the §5 evaluation harness.

A :class:`Scenario` is a frozen description of one experiment: which
tenant pool to draw from, which placer variants to compare, which
topologies to build, and the load / B_max / seed grids to sweep.  The
:class:`~repro.engine.engine.Engine` expands a scenario into a flat
:class:`Trial` matrix and executes it serially or across worker
processes; each trial produces one :class:`TrialResult`.

Scenarios carry no behaviour beyond grid bookkeeping — the per-kind
execution logic lives in :mod:`repro.engine.runners` and the
presentation (tables, charts) stays with the experiment modules.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import EngineError
from repro.placement.ha import HaPolicy
from repro.topology.builder import DatacenterSpec

__all__ = [
    "Scenario",
    "ScenarioResult",
    "TopologyCase",
    "Trial",
    "TrialResult",
    "Variant",
]

# Payload fields that record wall-clock time: excluded from fingerprints
# so that serial and parallel runs of the same trial compare equal.
_TIMING_FIELDS = frozenset(
    {"runtime_seconds", "seconds", "elapsed", "recover_seconds"}
)


@dataclass(frozen=True)
class Variant:
    """One algorithm/policy combination on the comparison axis.

    ``placer`` names an entry of
    :data:`repro.simulation.runner.PLACER_NAMES` for placement kinds, or
    an abstraction mode (``"tag"`` / ``"hose"``) for enforcement kinds.
    ``name`` is the display label (e.g. ``"cm+oppha"``).
    """

    name: str
    placer: str = ""
    ha: HaPolicy | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise EngineError("variant needs a non-empty name")
        if not self.placer:
            object.__setattr__(self, "placer", self.name)


@dataclass(frozen=True)
class TopologyCase:
    """One point on the topology axis: a labelled datacenter spec."""

    label: str
    spec: DatacenterSpec


@dataclass(frozen=True)
class Scenario:
    """Frozen description of one experiment's full trial grid.

    The grid is the cross product ``topologies x loads x bmaxes x xs x
    variants x seeds`` (in that nesting order, outermost first).  ``xs``
    is a kind-specific axis (tenant sizes for ``runtime``, sender counts
    for ``enforcement``); kinds that don't use an axis leave it at its
    single-point default.  ``params`` holds kind-specific knobs as a
    sorted tuple of pairs so the dataclass stays hashable.
    """

    name: str
    title: str
    kind: str
    pool: str = "bing"
    variants: tuple[Variant, ...] = (Variant("cm"),)
    topologies: tuple[TopologyCase, ...] = ()
    loads: tuple[float, ...] = (0.7,)
    bmaxes: tuple[float, ...] = (800.0,)
    seeds: tuple[int, ...] = (0,)
    xs: tuple[Any, ...] = (None,)
    arrivals: int = 600
    pods: int = 2
    laa_level: int = 0
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise EngineError("scenario needs a non-empty name")
        if not self.kind:
            raise EngineError(f"scenario {self.name!r} needs a kind")
        for axis in ("variants", "loads", "bmaxes", "seeds", "xs"):
            if not getattr(self, axis):
                raise EngineError(f"scenario {self.name!r}: empty {axis} axis")

    # ------------------------------------------------------------------
    def topology_cases(self) -> tuple[TopologyCase, ...]:
        """Explicit topology axis, or the default built from ``pods``."""
        if self.topologies:
            return self.topologies
        return (TopologyCase(f"{self.pods}p", DatacenterSpec(pods=self.pods)),)

    # ------------------------------------------------------------------
    def override(self, **changes: Any) -> "Scenario":
        """A copy with grid overrides applied (CLI ``--seeds 0,1,2`` etc.).

        Sequence-valued axes are coerced to tuples.  Overriding ``pods``
        also rewrites any explicit topology cases so the new pod count
        applies to every point on the topology axis.
        """
        changes = dict(changes)
        pods = changes.get("pods")
        # Rewrite the explicit topology axis for a new pod count — unless
        # the caller supplied their own topologies in the same call.
        if pods is not None and self.topologies and changes.get("topologies") is None:
            changes["topologies"] = tuple(
                TopologyCase(case.label, dataclasses.replace(case.spec, pods=pods))
                for case in self.topologies
            )
        for axis in ("variants", "topologies", "loads", "bmaxes", "seeds", "xs"):
            if axis in changes and changes[axis] is not None:
                changes[axis] = tuple(changes[axis])
        changes = {k: v for k, v in changes.items() if v is not None}
        return dataclasses.replace(self, **changes)

    def expand(self) -> list["Trial"]:
        """Flatten the grid into the ordered trial matrix."""
        trials: list[Trial] = []
        for topology in self.topology_cases():
            for load in self.loads:
                for bmax in self.bmaxes:
                    for x in self.xs:
                        for variant in self.variants:
                            for seed in self.seeds:
                                trials.append(
                                    Trial(
                                        scenario=self.name,
                                        kind=self.kind,
                                        index=len(trials),
                                        pool=self.pool,
                                        variant=variant,
                                        topology=topology,
                                        load=load,
                                        bmax=bmax,
                                        seed=seed,
                                        x=x,
                                        arrivals=self.arrivals,
                                        laa_level=self.laa_level,
                                        params=self.params,
                                    )
                                )
        return trials


@dataclass(frozen=True)
class Trial:
    """One fully-bound point of a scenario's grid (picklable)."""

    scenario: str
    kind: str
    index: int
    pool: str
    variant: Variant
    topology: TopologyCase
    load: float
    bmax: float
    seed: int
    x: Any = None
    arrivals: int = 600
    laa_level: int = 0
    params: tuple[tuple[str, Any], ...] = ()

    def param(self, key: str, default: Any = None) -> Any:
        for name, value in self.params:
            if name == key:
                return value
        return default


def _canonical(obj: Any) -> Any:
    """Recursively normalize a payload, dropping wall-clock fields."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.name not in _TIMING_FIELDS
        }
    if isinstance(obj, dict):
        return {
            key: _canonical(value)
            for key, value in sorted(obj.items())
            if key not in _TIMING_FIELDS
        }
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, float):
        return repr(obj)  # full precision: fingerprints are bit-exact
    return obj


@dataclass(frozen=True)
class TrialResult:
    """One trial's outcome: the kind-specific payload plus wall time.

    ``cached`` marks results served from a
    :class:`~repro.results.store.ResultStore` instead of executed;
    ``elapsed`` then reports the *original* execution's wall time.
    ``telemetry`` holds the trial's trace export (a plain dict, see
    :class:`repro.obs.trace.TraceRecorder`) when instrumentation was on,
    else ``None``; like ``elapsed`` it is observation, not outcome, and
    never participates in :meth:`fingerprint`.
    """

    trial: Trial
    payload: Any
    elapsed: float
    cached: bool = False
    telemetry: Any = None

    def fingerprint(self) -> str:
        """Deterministic identity of the trial and its metrics.

        Excludes wall-clock measurements (``elapsed`` and any
        ``runtime_seconds``-style payload field) so a serial run and an
        ``n_jobs > 1`` run of the same scenario fingerprint identically.
        """
        return repr((_canonical(self.trial), _canonical(self.payload)))


@dataclass
class ScenarioResult:
    """All trial results of one engine run, in grid order.

    ``cache_hits`` counts the results served from a store instead of
    executed; ``len(result) - result.cache_hits`` trials actually ran.
    """

    scenario: Scenario
    results: list[TrialResult] = field(default_factory=list)
    n_jobs: int = 1
    elapsed: float = 0.0
    cache_hits: int = 0

    @property
    def executed(self) -> int:
        return len(self.results) - self.cache_hits

    def __iter__(self) -> Iterator[TrialResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def payloads(self) -> list[Any]:
        return [result.payload for result in self.results]

    def by_variant(self, name: str) -> list[TrialResult]:
        return [r for r in self.results if r.trial.variant.name == name]
