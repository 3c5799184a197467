#!/usr/bin/env python3
"""The service loop: cohort-batched admission over a Poisson stream.

Drives tens of thousands of Poisson arrivals through ``ServiceLoop`` —
the event loop every paper figure runs, with ``RunMetrics.recorder`` as
its per-decision hook — without ever materializing the event list, and
prints the loop's counts and its throughput, timed here around
``loop.run``.  The decisions are bit-identical to a per-event
``place``/``release`` loop at any cohort size; only the bookkeeping is
batched.
"""

from __future__ import annotations

from time import perf_counter

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
    started = perf_counter()
    report = loop.run(events)
    elapsed = perf_counter() - started
    print(f"arrivals     {report['arrivals']:>10,}")
    print(f"accepted     {report['accepted']:>10,}")
    print(f"rejected     {report['rejected']:>10,} "
          f"({report['rejection_rate']:.1%})")
    print(f"departures   {report['departures']:>10,}")
    print(f"cohorts      {report['cohorts']:>10,} (max {report['max_cohort']})")
    print(f"throughput   {report['arrivals'] / elapsed:>10,.0f} events/s "
          f"({loop.place_seconds / elapsed:.0%} of the wall clock in place())")


if __name__ == "__main__":
    main()
