"""Time-varying bandwidth profiles (paper §6 extension).

"Smaller-scale load variations, which do not trigger scaling, can vary
bandwidth requirements over time; CloudMirror can adopt existing
approaches, such as workload profiling [18] or history-based prediction
[45], to be even more efficient."

A :class:`TemporalProfile` is a cyclic sequence of non-negative scaling
factors — one per time window (e.g., 24 hourly factors) — applied to all
of a TAG's guarantees.  A :class:`TemporalTag` couples a base TAG with a
profile; window ``w`` of the tenant demands ``base.scaled(factors[w])``.

The classic (time-unaware) system must reserve each tenant's *peak*
around the clock; window-aware admission lets day-peaking and
night-peaking tenants share the same links (the TIVC insight of [18]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.tag import Tag
from repro.errors import SimulationError

__all__ = ["TemporalProfile", "TemporalTag", "diurnal_profile"]


@dataclass(frozen=True)
class TemporalProfile:
    """Cyclic per-window demand scaling factors."""

    factors: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise SimulationError("a profile needs at least one window")
        for factor in self.factors:
            if not math.isfinite(factor) or factor < 0:
                raise SimulationError(
                    f"profile factors must be finite and >= 0, got {factor!r}"
                )

    @property
    def windows(self) -> int:
        return len(self.factors)

    @property
    def peak(self) -> float:
        return max(self.factors)

    @property
    def mean(self) -> float:
        total = 0  # not sum(): compensated from Python 3.12, values are pinned
        for factor in self.factors:
            total += factor
        return total / len(self.factors)

    @classmethod
    def flat(cls, windows: int, factor: float = 1.0) -> "TemporalProfile":
        return cls(tuple([factor] * windows))


def diurnal_profile(
    windows: int = 24,
    *,
    peak_window: int = 14,
    trough: float = 0.3,
    sharpness: float = 2.0,
) -> TemporalProfile:
    """A smooth day/night cycle peaking at ``peak_window`` (factor 1.0).

    ``trough`` is the off-peak floor; ``sharpness`` narrows the peak.
    Shifting ``peak_window`` by half the cycle gives the anti-correlated
    profile of a nightly batch job.
    """
    if not 0 < trough <= 1.0:
        raise SimulationError("trough must be in (0, 1]")
    phases = 2.0 * np.pi * (np.arange(windows) - peak_window) / windows
    shape = ((1.0 + np.cos(phases)) / 2.0) ** sharpness
    factors = trough + (1.0 - trough) * shape
    return TemporalProfile(tuple(float(f) for f in factors))


@dataclass(frozen=True)
class TemporalTag:
    """A tenant whose guarantees follow a temporal profile."""

    base: Tag
    profile: TemporalProfile

    def at(self, window: int) -> Tag:
        """The tenant's TAG during one time window."""
        return self.base.scaled(self.profile.factors[window % self.profile.windows])

    def peak_tag(self) -> Tag:
        """What a time-unaware system must reserve around the clock."""
        return self.base.scaled(self.profile.peak)

    @property
    def windows(self) -> int:
        return self.profile.windows

    def window_requirements(
        self, counts, requirement
    ) -> Sequence:
        """Per-window uplink requirements for a fixed VM split."""
        return [
            requirement(self.at(window), counts)
            for window in range(self.windows)
        ]
