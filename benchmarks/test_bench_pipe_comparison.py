"""Benchmark: §5.1 pipe-model comparison (CM+pipe vs SecondNet).

Paper: "Since pipe is a special case of TAG, we were able to evaluate
running CM to deploy the idealized bing pipe models, and observed
CM+pipe consuming 8% less bandwidth than SecondNet."  Also: idealized
pipes are fundamentally more bandwidth-efficient than TAG when placement
is ideal (no statistical-multiplexing headroom is reserved).
"""

from __future__ import annotations

from repro.experiments._table import Table
from repro.models.pipe import pipe_tag_from_tag
from repro.placement.base import Placement
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.placement.secondnet import SecondNetPlacer
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Ledger
from repro.workloads.bing import bing_pool
from repro.workloads.scaling import scale_pool


def _total_reserved(ledger: Ledger) -> float:
    return sum(ledger.reserved_at_level(level) for level in range(3))


def _run(bench_pods: int):
    pool = [
        tag
        for tag in scale_pool(bing_pool(), 400.0)
        if 6 <= tag.size <= 40 and tag.num_tiers >= 2
    ][:10]
    spec = DatacenterSpec(pods=bench_pods)
    results = {}
    for label in ("cm+pipe", "secondnet"):
        topology = three_level_tree(spec)
        ledger = Ledger(topology)
        placed = 0
        if label == "cm+pipe":
            placer = CloudMirrorPlacer(ledger)
            tenants = [pipe_tag_from_tag(tag) for tag in pool]
        else:
            placer = SecondNetPlacer(ledger)
            tenants = list(pool)
        for tenant in tenants:
            if isinstance(placer.place(tenant), Placement):
                placed += 1
        results[label] = (placed, _total_reserved(ledger))
    return results


def test_pipe_placement_comparison(bench_pods):
    results = _run(bench_pods)
    table = Table(
        "§5.1 — idealized pipe models: CM+pipe vs SecondNet",
        ("placer", "tenants placed", "total reserved (Mbps)"),
    )
    for label, (placed, reserved) in results.items():
        table.add(label, placed, f"{reserved:.0f}")
    table.show()
    cm_placed, cm_reserved = results["cm+pipe"]
    sn_placed, sn_reserved = results["secondnet"]
    assert cm_placed >= sn_placed
    if cm_placed == sn_placed:
        # Paper: CM's pipe placements are at least as bandwidth-efficient.
        assert cm_reserved <= sn_reserved * 1.05
