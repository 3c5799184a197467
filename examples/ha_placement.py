#!/usr/bin/env python3
"""High-availability placement (§4.5): guaranteed and opportunistic.

Places the same replicated service three ways — default CloudMirror,
with a guaranteed 50% worst-case survivability, and with opportunistic
anti-affinity — and reports where the replicas land and what WCS each
tier achieves when a single server can fail.
"""

from __future__ import annotations

from repro import (
    CloudMirrorPlacer,
    HaPolicy,
    Ledger,
    Placement,
    Tag,
    allocation_wcs,
    paper_datacenter,
)


def service() -> Tag:
    tag = Tag("payments")
    tag.add_component("api", size=8)
    tag.add_component("store", size=6)
    tag.add_edge("api", "store", send=12.0, recv=16.0)
    tag.add_edge("store", "api", send=9.0, recv=12.0)
    tag.add_self_loop("store", 6.0)  # replication chatter
    return tag


def place(label: str, ha: HaPolicy | None) -> None:
    topology = paper_datacenter(scale=0.125)
    ledger = Ledger(topology)
    placer = CloudMirrorPlacer(ledger, ha=ha)
    # Warm the demand estimator so opportunistic HA has history to act on.
    result = placer.place(service())
    if not isinstance(result, Placement):
        raise SystemExit(f"{label}: rejected ({result.reason})")
    wcs = allocation_wcs(result.allocation, laa_level=0)
    servers = sorted(
        (topology.node(server_id).name, dict(counts))
        for server_id, counts in result.allocation.iter_server_placements()
    )
    print(f"{label}:")
    print(f"  servers used : {len(servers)}")
    for name, counts in servers:
        print(f"    {name}: {counts}")
    for tier, value in sorted(wcs.items()):
        print(f"  WCS({tier:<6}) = {value:.0%}  "
              "(fraction surviving one server failure)")
    print()


def main() -> None:
    place("default CM (no HA)", None)
    place("CM+HA: guarantee WCS >= 50% per tier", HaPolicy(required_wcs=0.5))
    place("CM+oppHA: opportunistic anti-affinity", HaPolicy(opportunistic=True))


if __name__ == "__main__":
    main()
