"""Time-varying bandwidth guarantees (paper §6 extension, TIVC-style)."""

from repro._lazy import lazy_exports

__all__ = [
    "TemporalAdmission",
    "TemporalCluster",
    "TemporalLedger",
    "peak_equivalent",
    "TemporalProfile",
    "TemporalTag",
    "diurnal_profile",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.temporal.admission": (
        "TemporalAdmission", "TemporalCluster", "TemporalLedger", "peak_equivalent",
    ),
    "repro.temporal.profile": ("TemporalProfile", "TemporalTag", "diurnal_profile"),
})
