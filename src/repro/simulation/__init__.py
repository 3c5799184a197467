"""Event-driven admission-control simulation (paper §5 setup).

One event loop, :class:`~repro.simulation.service.ServiceLoop`, drives
every arrival/departure stream; :func:`run_rejections` is the paper
figures' run of it.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Arrival",
    "PLACER_NAMES",
    "ReservedBandwidth",
    "RunMetrics",
    "WcsStats",
    "arrival_rate_for_load",
    "make_placer",
    "measure_reserved_bandwidth",
    "poisson_arrivals",
    "run_rejections",
    "simulate_rejections",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.simulation.arrivals": (
        "Arrival", "arrival_rate_for_load", "poisson_arrivals",
    ),
    "repro.simulation.metrics": ("RunMetrics", "WcsStats"),
    "repro.simulation.runner": (
        "PLACER_NAMES", "ReservedBandwidth", "make_placer",
        "measure_reserved_bandwidth", "run_rejections", "simulate_rejections",
    ),
})
