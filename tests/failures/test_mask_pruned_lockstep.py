"""Differential harness: FailureMask vs physically-pruned topology.

The mask's contract is that a failed node is *placement-equivalent to an
absent node*: running the same admission/departure stream against the
full topology with a mask installed must make bit-identical decisions —
same accept/reject sequence, same per-server layouts — as running it
against :func:`tests.failures.pruned_topology.pruned_topology`, for every
placer, with the candidate index and with the full-scan reference
(``tests/placement/scan_candidates.py``), on the symmetric and the
heterogeneous fabric.  Layouts are compared by node *name* because the
pruned rebuild assigns fresh dense ids.  The degenerate input — a mask
attached with nothing failed, against the topology pruned of nothing —
must also leave the bit-identical ledger end-state.

A temporal twin pins the same property for the W-plane ledger: admission
outcomes and every surviving node's per-window reservation column must
match between the masked and the pruned cluster (plane parity).
"""

from __future__ import annotations

import pytest

from repro.placement.ha import HaPolicy
from repro.simulation.arrivals import Arrival
from repro.simulation.runner import make_placer
from repro.simulation.service import ServiceLoop, ledger_fingerprint
from repro.temporal.admission import TemporalCluster
from repro.temporal.profile import TemporalProfile, TemporalTag, diurnal_profile
from repro.topology.builder import (
    DatacenterSpec,
    heterogeneous_from_spec,
    three_level_tree,
)
from repro.topology.ledger import Journal, Ledger
from repro.workloads.scaling import scale_pool
from repro.workloads.synthetic import synthetic_pool
from tests.failures.pruned_topology import pruned_topology
from tests.placement.scan_candidates import scan_unless_indexed
from tests.topology.ledger_views import plane_matrices

SPEC = DatacenterSpec(
    servers_per_rack=4,
    racks_per_pod=3,
    pods=2,
    slots_per_server=4,
    server_uplink=1000.0,
    tor_oversub=4.0,
    agg_oversub=2.0,
)

# One dead ToR, one dead ToR uplink (same placement effect, distinct
# metric), two dead servers in otherwise-healthy racks.  Named, not id'd:
# names survive the pruned rebuild's re-identification.
FAILED_NAMES = ("tor-0-1", "tor-1-0", "srv-0-0-1", "srv-1-1-0")

ADMISSIONS = 40

PLACER_CASES = [
    ("cm", None),
    ("ovoc", None),
    ("secondnet", None),
    ("cm", HaPolicy(required_wcs=0.5, laa_level=0)),
]
PLACER_IDS = ["cm", "ovoc", "secondnet", "cm+ha"]


def _ids_by_name(topology):
    return {node.name: node.node_id for node in topology.nodes}


def _fail_by_name(ledger, names) -> Journal:
    """Fail the named nodes; rolling the returned journal back restores them."""
    mask = ledger.ensure_failure_mask()
    ids = _ids_by_name(ledger.topology)
    journal = Journal()
    for name in names:
        mask.fail(ids[name], journal)
    return journal


@pytest.fixture(scope="module", params=["symmetric", "hetero"])
def fabric(request):
    if request.param == "symmetric":
        topology = three_level_tree(SPEC)
    else:
        topology = heterogeneous_from_spec(SPEC)
    topology.flat
    pruned = pruned_topology(
        topology, [_ids_by_name(topology)[name] for name in FAILED_NAMES]
    )
    pruned.flat
    pool = scale_pool(list(synthetic_pool()), 0.5)
    return topology, pruned, pool


def _run_stream(
    topology, pool, placer_name, ha, *, use_index, failed=None, restore_after=None
):
    """Admissions with interleaved departures; layouts keyed by name.

    ``failed=None`` attaches no mask; ``failed=()`` attaches an empty one.
    Arrival ``i`` leaves just before arrival ``4 i + 4``: one departure
    per four arrivals, oldest first.  ``restore_after=k`` rolls every
    failure back once ``k`` arrivals have been decided.
    """
    ledger = Ledger(topology)
    if failed is not None:
        failures = _fail_by_name(ledger, failed)
    placer = make_placer(placer_name, ledger, ha)
    outcomes = []
    loop = ServiceLoop(
        ledger,
        placer,
        pool,
        on_decision=lambda tag, allocation: outcomes.append(allocation is not None),
    )
    arrivals = [
        Arrival(float(i), i % len(pool), 3.0 * i + 3.5) for i in range(ADMISSIONS)
    ]
    split = ADMISSIONS if restore_after is None else restore_after
    with scan_unless_indexed(placer, use_index):
        loop.run(arrivals[:split])
        if restore_after is not None:
            ledger.rollback(failures)
        loop.run(arrivals[split:])
    layouts = [
        sorted(
            (
                allocation.ledger.topology.node(server_id).name,
                tuple(sorted(counts.items())),
            )
            for server_id, counts in allocation.iter_server_placements()
        )
        for allocation in loop.live()
    ]
    return outcomes, layouts, ledger


@pytest.mark.parametrize("failed", [FAILED_NAMES, ()], ids=["failed", "empty-mask"])
@pytest.mark.parametrize("use_index", [True, False], ids=["index", "scan"])
@pytest.mark.parametrize(("placer_name", "ha"), PLACER_CASES, ids=PLACER_IDS)
def test_mask_equals_pruned(fabric, placer_name, ha, use_index, failed):
    topology, pruned, pool = fabric
    masked = _run_stream(
        topology, pool, placer_name, ha, use_index=use_index, failed=failed
    )
    # Pruning nothing leaves the topology itself, ids included.
    reference = _run_stream(
        pruned if failed else topology, pool, placer_name, ha, use_index=use_index
    )
    assert masked[0] == reference[0], f"{placer_name}: admissions diverged"
    assert masked[1] == reference[1], f"{placer_name}: layouts diverged"
    if not failed:
        assert reference[2]._failure_mask is None
        assert ledger_fingerprint(masked[2]) == ledger_fingerprint(reference[2])
    # The stream must exercise both sides of admission control, or the
    # equivalence proves less than it claims.
    assert any(masked[0]) and not all(masked[0])
    # And nothing may ever have landed on a failed domain.
    down = {
        name
        for name, node_id in _ids_by_name(topology).items()
        if topology.flat.is_server[node_id]
        and masked[2]._failure_mask.is_down(node_id)
    }
    for layout in masked[1]:
        for server_name, _ in layout:
            assert server_name not in down


@pytest.mark.parametrize("use_index", [True, False], ids=["index", "scan"])
def test_mask_equals_pruned_index_cross(fabric, use_index):
    """Mask+index must also equal pruned on the full scan (cross-config)."""
    topology, pruned, pool = fabric
    masked = _run_stream(
        topology, pool, "cm", None, use_index=use_index, failed=FAILED_NAMES
    )
    reference = _run_stream(pruned, pool, "cm", None, use_index=not use_index)
    assert masked[0] == reference[0]
    assert masked[1] == reference[1]


# ----------------------------------------------------------------------
# Temporal plane parity
# ----------------------------------------------------------------------

WINDOWS = 4


def _temporal_tenants():
    from repro.core.tag import Tag

    def web(scale):
        tag = Tag("web")
        tag.add_component("front", 4)
        tag.add_component("back", 4)
        tag.add_edge("front", "back", 120.0 * scale, 120.0 * scale)
        tag.add_edge("back", "front", 120.0 * scale, 120.0 * scale)
        return tag

    day = diurnal_profile(WINDOWS, peak_window=1)
    night = diurnal_profile(WINDOWS, peak_window=3)
    flat = TemporalProfile.flat(WINDOWS, 0.8)
    return [
        TemporalTag(web(1.0 + (i % 3) * 0.4), (day, night, flat)[i % 3])
        for i in range(18)
    ]


def _temporal_run(topology, failed=()):
    cluster = TemporalCluster(None, windows=WINDOWS, topology=topology)
    if failed:
        _fail_by_name(cluster.ledger, failed)
    outcomes = []
    live = []
    for i, tenant in enumerate(_temporal_tenants()):
        admission = cluster.admit(tenant)
        outcomes.append(admission is not None)
        if admission is not None:
            live.append(admission)
        if i % 5 == 4 and live:
            cluster.depart(live.pop(0))
    up, down = plane_matrices(cluster.ledger)
    ids = _ids_by_name(topology)
    used = {
        node.name: cluster.ledger.used_slots(node)
        for node in topology.servers
    }
    return outcomes, ids, up, down, used


def test_temporal_plane_parity(fabric):
    topology, pruned, _pool = fabric
    masked = _temporal_run(topology, failed=FAILED_NAMES)
    reference = _temporal_run(pruned)
    assert masked[0] == reference[0], "temporal admissions diverged"
    # Every surviving node's W-window reservation column must match the
    # pruned cluster's column for the same node name.
    for name, pruned_id in reference[1].items():
        full_id = masked[1][name]
        assert masked[2][:, full_id].tolist() == reference[2][:, pruned_id].tolist(), (
            f"up-plane column diverged on {name!r}"
        )
        assert masked[3][:, full_id].tolist() == reference[3][:, pruned_id].tolist(), (
            f"down-plane column diverged on {name!r}"
        )
    for name, slots in reference[4].items():
        assert masked[4][name] == slots, f"slot column diverged on {name!r}"
    assert any(masked[0]) and not all(masked[0])
