"""Layout-level differential fixture for the CloudMirror child search.

``search_layouts.json`` was recorded on the commit *before* the search
stopped re-scanning after a failed try (one scan per ledger change, a
side-effect-free server probe).  Every scenario is a seeded churn loaded
high enough that most ``_try_child`` calls fail, and records, per
arrival, the accept/reject byte and the server-level layout of an
accepted tenant.  The search change is decision-identical, so the
fixture must reproduce byte for byte.

Re-record (only when a *decision* is meant to change)::

    PYTHONPATH=src python tests/placement/test_search_layouts.py
"""

from __future__ import annotations

import heapq
import json
from pathlib import Path

import pytest

from repro.placement.base import Placement
from repro.placement.ha import HaPolicy
from repro.simulation.arrivals import poisson_arrivals
from repro.simulation.runner import make_placer
from repro.temporal.admission import TemporalCluster
from repro.temporal.profile import TemporalTag, diurnal_profile
from repro.topology.builder import (
    DatacenterSpec,
    heterogeneous_from_spec,
    three_level_tree,
)
from repro.topology.ledger import Journal, Ledger
from repro.workloads.bing import bing_pool
from repro.workloads.scaling import scale_pool

FIXTURE = Path(__file__).with_name("search_layouts.json")

SPEC = DatacenterSpec(
    servers_per_rack=8,
    racks_per_pod=4,
    pods=2,
    slots_per_server=4,
    server_uplink=1000.0,
    tor_oversub=4.0,
    agg_oversub=2.0,
)
ARRIVALS = 90
LOAD = 0.9
WINDOWS = 4

# name -> (placer name, HaPolicy or None)
CLASSIC = {
    "cm": ("cm", None),
    "cm-wcs": ("cm", HaPolicy(required_wcs=0.5)),
    "cm-opportunistic": ("cm", HaPolicy(opportunistic=True)),
    "cm-coloc-only": ("cm-coloc-only", None),
    "cm-balance-only": ("cm-balance-only", None),
}
SCENARIOS = (*CLASSIC, "temporal", "hetero-fail-restore")


def small_bing_pool():
    # Small bing tenants at a guarantee scale where bandwidth, not
    # slots, rejects: the regime in which most child tries fail.
    tenants = [tag for tag in bing_pool(seed=11, tenants=60) if tag.size <= 48]
    return scale_pool(tenants, 1600.0)


def _layout(allocation) -> str:
    return ";".join(
        f"{server_id}:" + ",".join(f"{tier}={n}" for tier, n in sorted(counts))
        for server_id, counts in sorted(
            (server.node_id, tuple(counts.items()))
            for server, counts in allocation.iter_server_placements()
        )
    )


def _churn(topology, pool, admit, depart, hook=None, arrivals=ARRIVALS):
    """Poisson arrivals / exponential departures; per-arrival records."""
    events = poisson_arrivals(pool, arrivals, LOAD, topology.total_slots, seed=5)
    departures: list = []
    decisions = []
    layouts = []
    for sequence, arrival in enumerate(events):
        while departures and departures[0][0] <= arrival.time:
            depart(heapq.heappop(departures)[2])
        if hook is not None:
            hook(sequence)
        live, allocation = admit(arrival.tenant_index)
        decisions.append("1" if live is not None else "0")
        if live is not None:
            layouts.append(_layout(allocation))
            heapq.heappush(departures, (arrival.time + arrival.dwell, sequence, live))
    return {"decisions": "".join(decisions), "layouts": layouts}


def _classic(
    topology, placer_name, ha, hook_for=None, ledger_cls=Ledger, arrivals=ARRIVALS
):
    pool = small_bing_pool()
    ledger = ledger_cls(topology)
    placer = make_placer(placer_name, ledger, ha)

    def admit(index):
        result = placer.place(pool[index])
        if isinstance(result, Placement):
            return result.allocation, result.allocation
        return None, None

    hook = hook_for(ledger) if hook_for is not None else None
    return _churn(topology, pool, admit, lambda a: a.release(), hook, arrivals)


def _temporal(topology, ha=None, arrivals=ARRIVALS):
    pool = small_bing_pool()
    tenants = [
        TemporalTag(tag, diurnal_profile(WINDOWS, peak_window=i % WINDOWS, trough=0.3))
        for i, tag in enumerate(pool)
    ]
    cluster = TemporalCluster(None, WINDOWS, topology=topology)
    if ha is not None:
        cluster.placer = make_placer("cm", cluster.ledger, ha)

    def admit(index):
        admission = cluster.admit(tenants[index])
        if admission is None:
            return None, None
        return admission, admission.allocation

    return _churn(topology, pool, admit, cluster.depart, arrivals=arrivals)


def _fail_restore_hook(ledger):
    """Fail a dense rack and a plain server early, restore them later."""
    mask = ledger.ensure_failure_mask()
    ids = {node.name: node.node_id for node in ledger.topology.nodes}
    schedule = {
        12: (mask.fail, "tor-0-1"),
        20: (mask.fail, "srv-1-0-2"),
        40: (mask.restore, "tor-0-1"),
        50: (mask.fail_link, "tor-1-3"),
        65: (mask.restore, "srv-1-0-2"),
        80: (mask.restore, "tor-1-3"),
    }

    def hook(sequence):
        step = schedule.get(sequence)
        if step is not None:
            # Live tenants on a failed domain keep their reservations
            # (the mask only blocks *new* placements): the point here is
            # the placer's search over a fabric whose capacity flips.
            step[0](ids[step[1]], Journal())

    return hook


def run_scenario(name: str) -> dict:
    if name == "temporal":
        return _temporal(three_level_tree(SPEC))
    if name == "hetero-fail-restore":
        return _classic(heterogeneous_from_spec(SPEC), "cm", None, _fail_restore_hook)
    placer_name, ha = CLASSIC[name]
    return _classic(three_level_tree(SPEC), placer_name, ha)


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", SCENARIOS)
def test_layouts_match_the_recorded_search(recorded, name):
    result = run_scenario(name)
    expected = recorded[name]
    assert result["decisions"] == expected["decisions"]
    assert result["layouts"] == expected["layouts"]
    # Both sides of admission control, or the fixture pins nothing.
    assert "0" in result["decisions"] and "1" in result["decisions"]


class _UnprobeableLedger(Ledger):
    """A ledger the server probe cannot evaluate: every try is a real one."""

    would_overcommit = None


def test_probe_is_only_an_accelerator(recorded):
    result = _classic(three_level_tree(SPEC), "cm", None, ledger_cls=_UnprobeableLedger)
    assert result == recorded["cm"]


if __name__ == "__main__":
    document = {name: run_scenario(name) for name in SCENARIOS}
    FIXTURE.write_text(json.dumps(document, indent=0, sort_keys=True) + "\n")
    print(f"recorded {FIXTURE}")
