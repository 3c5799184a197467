"""Failure-injection scenario: guarantee survival and re-placement churn.

Extends the Fig. 4 hose-failure motivation into a full sweep: load a
datacenter through the standard §5.1 arrival/departure loop, inject a
seeded set of server / switch / link failures through the ledger's
:class:`~repro.topology.failures.FailureMask`, then measure

* **survival** — how many placed tenants (and VMs) kept their guarantee
  because none of their VMs sat in a failed domain;
* **re-placement churn** — victims are released and re-admitted under
  the mask (the fabric minus its failed domains); how many fit again,
  how many VMs had to move, how many tenants are lost;
* **time-to-recover** — wall clock of the victim release + re-admission
  pass (indicative only: it is excluded from payload fingerprints).

The failure set is drawn from the trial seed, not the arrival seed
stream, so the loaded state and the fault pattern vary independently
across seed replicas.
"""

from __future__ import annotations

import random
from typing import Any, Sequence

from repro.core.tag import Tag
from repro.obs import core as obs
from repro.placement.base import Placement
from repro.simulation.arrivals import poisson_arrivals
from repro.simulation.runner import make_placer
from repro.simulation.service import ServiceLoop
from repro.topology import Topology
from repro.topology.ledger import Journal, Ledger

__all__ = ["pick_failures", "run_failure_scenario"]


def pick_failures(
    topology: Topology,
    rng: random.Random,
    *,
    fail_fraction: float,
    switch_failures: int,
    link_failures: int,
) -> tuple[list[int], list[int], list[int]]:
    """Draw a disjoint (servers, switches, links) failure set.

    Switch and link failures hit distinct ToRs (a dead ToR and a dead
    ToR uplink strand the same rack; keeping the draws disjoint makes
    the counts meaningful), and server failures are drawn from racks
    not already stranded.  All draws are clamped to what the topology
    actually has.
    """
    flat = topology.flat
    # ToR switches: level 1, but only when that level is below the root
    # (a single-rack tree's level-1 node *is* the root).
    racks = list(flat.level_ids[1]) if flat.num_levels > 2 else []
    switches = sorted(rng.sample(racks, min(switch_failures, len(racks))))
    remaining = [rack for rack in racks if rack not in switches]
    links = sorted(rng.sample(remaining, min(link_failures, len(remaining))))
    covered: set[int] = set()
    for node_id in switches + links:
        lo, hi = flat.server_span[node_id]
        covered.update(flat.server_order[lo:hi])
    candidates = [s for s in flat.server_order if s not in covered]
    count = min(
        len(candidates), max(0, round(fail_fraction * len(flat.server_order)))
    )
    servers = sorted(rng.sample(candidates, count))
    return servers, switches, links


def run_failure_scenario(
    topology: Topology,
    pool: Sequence[Tag],
    *,
    placer_name: str,
    ha=None,
    load: float,
    arrivals: int,
    seed: int,
    fail_fraction: float,
    switch_failures: int = 1,
    link_failures: int = 1,
) -> dict[str, Any]:
    """Load, fail, recover; returns the survival/churn payload dict."""
    ledger = Ledger(topology)
    placer = make_placer(placer_name, ledger, ha)
    loop = ServiceLoop(ledger, placer, pool)
    loop.run(poisson_arrivals(pool, arrivals, load, topology.total_slots, seed=seed))
    placed = loop.live()
    placed_vms = sum(allocation.tag.size for allocation in placed)

    rng = random.Random(seed * 7919 + 13)
    servers, switches, links = pick_failures(
        topology,
        rng,
        fail_fraction=fail_fraction,
        switch_failures=switch_failures,
        link_failures=link_failures,
    )
    mask = ledger.ensure_failure_mask()
    journal = Journal()
    for node_id in switches:
        mask.fail(node_id, journal)
    for node_id in links:
        mask.fail_link(node_id, journal)
    for node_id in servers:
        mask.fail(node_id, journal)

    # obs.timed: same perf_counter pair as before, plus a "recover" span
    # in the trial trace when instrumentation is on.
    with obs.timed("recover") as timer:
        live, victims = [], []
        for allocation in placed:
            hit = any(
                mask.is_down(server_id)
                for server_id, _ in allocation.iter_server_placements()
            )
            (victims if hit else live).append(allocation)
        victim_vms = sum(allocation.tag.size for allocation in victims)
        for allocation in victims:
            allocation.release()
        replaced = lost = churn_vms = 0
        for allocation in victims:
            result = placer.place(allocation.tag)
            if isinstance(result, Placement):
                replaced += 1
                churn_vms += allocation.tag.size
                live.append(result.allocation)
            else:
                lost += 1
    recover_seconds = timer.seconds

    # Recovery invariant: nothing may live on a covered server.
    for allocation in live:
        for server_id, _ in allocation.iter_server_placements():
            assert not mask.is_down(server_id), (
                f"allocation survived on failed server {server_id}"
            )

    survivors = len(placed) - len(victims)
    return {
        "placed": len(placed),
        "placed_vms": placed_vms,
        "failed_servers": len(servers),
        "failed_switches": len(switches),
        "failed_links": len(links),
        "downed_servers": len(mask.down_servers()),
        "victims": len(victims),
        "victim_vms": victim_vms,
        "survivors": survivors,
        "survival_rate": survivors / len(placed) if placed else 1.0,
        "replaced": replaced,
        "lost": lost,
        "churn_vms": churn_vms,
        "recover_seconds": recover_seconds,
    }
