#!/usr/bin/env python3
"""Quickstart: describe an application as a TAG and place it.

Builds the paper's running example — a three-tier web application
(Fig. 2(a)) — as a Tenant Application Graph, deploys it on a small
oversubscribed datacenter with CloudMirror, and prints where the VMs
landed and what bandwidth was reserved on which uplinks.
"""

from __future__ import annotations

from repro import CloudMirrorPlacer, Ledger, Placement, Tag, paper_datacenter


def main() -> None:
    # 1. Describe the application: three tiers, per-VM guarantees in Mbps.
    tag = Tag("web-shop")
    tag.add_component("web", size=24)
    tag.add_component("logic", size=24)
    tag.add_component("db", size=12)
    tag.add_undirected_edge("web", "logic", 500.0, 500.0)  # B1
    tag.add_undirected_edge("logic", "db", 100.0, 200.0)   # B2 (asymmetric)
    tag.add_self_loop("db", 50.0)                          # B3: replication
    print(f"tenant: {tag.size} VMs, {tag.num_tiers} tiers, "
          f"{tag.total_bandwidth:.0f} Mbps aggregate guarantees\n")

    # 2. Build a datacenter (256 servers, 10G NICs, 4:8 oversubscription)
    #    and its reservation ledger.
    topology = paper_datacenter(scale=0.125)
    print(topology.describe(), "\n")
    ledger = Ledger(topology)

    # 3. Place with CloudMirror.
    placer = CloudMirrorPlacer(ledger)
    result = placer.place(tag)
    if not isinstance(result, Placement):
        raise SystemExit(f"rejected: {result.reason}")

    # The allocation names nodes by id; the topology holds their names.
    def name(node_id: int) -> str:
        return topology.node(node_id).name

    print("placement:")
    for server_id, counts in sorted(
        result.allocation.iter_server_placements(), key=lambda x: name(x[0])
    ):
        layout = ", ".join(f"{tier} x{n}" for tier, n in sorted(counts.items()))
        print(f"  {name(server_id)}: {layout}")

    print("\nreserved uplink bandwidth (up / down, Mbps):")
    for node_id, counts in sorted(
        result.allocation.iter_node_counts(), key=lambda x: name(x[0])
    ):
        demand = result.allocation.reserved_on(node_id)
        if demand.out or demand.into:
            print(f"  {name(node_id):<14} {demand.out:8.0f} / {demand.into:8.0f}")

    # 4. Tenants can leave; everything is released.
    result.allocation.release()
    print("\nafter release: datacenter is clean "
          f"(free slots = {ledger.free_slots(topology.root)})")


if __name__ == "__main__":
    main()
