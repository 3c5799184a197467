"""Event-driven admission-control simulation (paper §5 setup)."""

from repro.simulation.arrivals import Arrival, arrival_rate_for_load, poisson_arrivals
from repro.simulation.cluster import (
    ClusterManager,
    run_arrival_departure,
    run_arrivals_until_full,
)
from repro.simulation.metrics import RunMetrics, WcsStats
from repro.simulation.runner import (
    PLACER_NAMES,
    ReservedBandwidth,
    make_placer,
    measure_reserved_bandwidth,
    simulate_rejections,
)

__all__ = [
    "Arrival",
    "ClusterManager",
    "PLACER_NAMES",
    "ReservedBandwidth",
    "RunMetrics",
    "WcsStats",
    "arrival_rate_for_load",
    "make_placer",
    "measure_reserved_bandwidth",
    "poisson_arrivals",
    "run_arrival_departure",
    "run_arrivals_until_full",
    "simulate_rejections",
]
