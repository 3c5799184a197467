#!/usr/bin/env python3
"""The streaming service loop: cohort-batched admission at scale.

Drives tens of thousands of Poisson arrivals through
``ServiceLoop`` — the event loop behind ``repro run service`` — without
ever materializing the event list, and prints the streaming metrics an
online placement service watches: throughput, time-to-place quantiles,
windowed rejection rate, utilization.  The decisions are bit-identical
to a per-event ``place``/``release`` loop at any cohort size; only the
bookkeeping is batched.  The paper figures run through this same loop,
with ``RunMetrics.recorder`` as its per-decision hook.
"""

from __future__ import annotations

from repro.simulation.arrivals import arrival_stream
from repro.simulation.runner import make_placer
from repro.simulation.service import ServiceLoop
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Ledger
from repro.workloads.patterns import three_tier

ARRIVALS = 20_000
LOAD = 1.5  # sustained overload: admission control earns its keep
COHORT = 256


def main() -> None:
    spec = DatacenterSpec(pods=2)
    topology = three_level_tree(spec)
    pool = [
        three_tier(
            f"svc-{i}", (2 + i % 3, 2, 1 + i % 2), b1=150.0, b2=60.0, b3=30.0
        )
        for i in range(16)
    ]
    print(
        f"datacenter: {spec.num_servers} servers "
        f"({topology.total_slots} slots); pool of {len(pool)} services; "
        f"{ARRIVALS:,} arrivals at {LOAD:.0%} offered load\n"
    )
    ledger = Ledger(topology)
    loop = ServiceLoop(
        ledger, make_placer("cm", ledger), pool, cohort=COHORT
    )
    # O(block) memory: the generator never holds the full event list.
    events = arrival_stream(pool, ARRIVALS, LOAD, topology.total_slots, seed=7)
    report = loop.run(events)
    timing = report["timing"]
    utilization = report["utilization"]
    print(f"arrivals     {report['arrivals']:>10,}")
    print(f"accepted     {report['accepted']:>10,}")
    print(f"rejected     {report['rejected']:>10,} "
          f"({report['rejection_rate']:.1%} overall, "
          f"{report['windowed_rejection_rate']:.1%} in the last window)")
    print(f"departures   {report['departures']:>10,}")
    print(f"cohorts      {report['cohorts']:>10,} (max {report['max_cohort']})")
    print(f"throughput   {timing['events_per_sec']:>10,.0f} events/s")
    print(f"time to place   p50 {timing['p50_place_ms']:.2f}ms   "
          f"p99 {timing['p99_place_ms']:.2f}ms")
    print(f"slot utilization   mean {utilization['mean_slot']:.1%}   "
          f"last {utilization['last_slot']:.1%}")
    print(
        "\nThe metrics are O(1) memory (log-bucket histogram + fixed ring): "
        f"{loop.metrics.footprint()} stored scalars, independent of the "
        "event count — the same loop handles a million events."
    )


if __name__ == "__main__":
    main()
