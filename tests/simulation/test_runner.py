"""Integration tests for the experiment runners (small scale)."""

from __future__ import annotations

import pytest

from repro.core.tag import Tag
from repro.errors import SimulationError
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.placement.ha import HaPolicy
from repro.placement.oktopus import OktopusPlacer
from repro.placement.secondnet import SecondNetPlacer
from repro.simulation.runner import (
    make_placer,
    measure_reserved_bandwidth,
    simulate_rejections,
)
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Ledger
from repro.workloads.bing import bing_pool

SMALL_SPEC = DatacenterSpec(
    servers_per_rack=8, racks_per_pod=4, pods=2, slots_per_server=8
)


class TestMakePlacer:
    def test_factory_names(self):
        ledger = Ledger(three_level_tree(SMALL_SPEC))
        assert isinstance(make_placer("cm", ledger), CloudMirrorPlacer)
        assert isinstance(make_placer("ovoc", ledger), OktopusPlacer)
        assert isinstance(make_placer("secondnet", ledger), SecondNetPlacer)
        assert not make_placer("cm-coloc-only", ledger).enable_balance
        assert not make_placer("cm-balance-only", ledger).enable_colocate

    def test_unknown_name(self):
        ledger = Ledger(three_level_tree(SMALL_SPEC))
        with pytest.raises(SimulationError):
            make_placer("nope", ledger)

    def test_secondnet_rejects_ha(self):
        ledger = Ledger(three_level_tree(SMALL_SPEC))
        with pytest.raises(SimulationError):
            make_placer("secondnet", ledger, HaPolicy(required_wcs=0.5))


class TestSimulateRejections:
    @pytest.fixture(scope="class")
    def pool(self):
        # Keep only small tenants so the tiny test datacenter is realistic.
        return [t for t in bing_pool() if t.size <= 40][:20]

    def test_cm_beats_ovoc(self, pool):
        cm = simulate_rejections(
            pool, "cm", load=0.8, bmax=600.0, spec=SMALL_SPEC, arrivals=150, seed=4
        )
        ovoc = simulate_rejections(
            pool, "ovoc", load=0.8, bmax=600.0, spec=SMALL_SPEC, arrivals=150, seed=4
        )
        assert cm.bw_rejection_rate <= ovoc.bw_rejection_rate + 1e-9

    def test_metrics_are_rates(self, pool):
        metrics = simulate_rejections(
            pool, "cm", load=0.5, bmax=400.0, spec=SMALL_SPEC, arrivals=100, seed=1
        )
        assert 0.0 <= metrics.bw_rejection_rate <= 1.0
        assert metrics.tenants_total == 100


class TestMeasureReservedBandwidth:
    def test_table1_invariants(self):
        pool = [t for t in bing_pool() if t.size <= 60][:20]
        reserved = measure_reserved_bandwidth(
            pool, bmax=800.0, spec=SMALL_SPEC, seed=2, max_arrivals=500
        )
        assert reserved.tenants_deployed > 0
        # Footnote-7 guarantee: VOC accounting >= TAG accounting on the
        # same placement, at every level.
        for level in ("server", "tor", "agg"):
            assert reserved.cm_voc[level] >= reserved.cm_tag[level] - 1e-9
        # All values finite and non-negative.
        for row in (reserved.cm_tag, reserved.cm_voc, reserved.ovoc):
            for value in row.values():
                assert value >= 0.0

    def test_stops_at_the_first_rejection(self):
        tenant = Tag("big")
        tenant.add_component("app", 100)
        tenant.add_self_loop("app", 10.0)
        reserved = measure_reserved_bandwidth(
            [tenant], bmax=800.0, spec=SMALL_SPEC, max_arrivals=20
        )
        # 512 slots / 100 -> 5 fit; the 6th is rejected and ends the run,
        # and Oktopus deploys exactly those five.
        assert reserved.tenants_deployed == 5
        assert reserved.ovoc["server"] == pytest.approx(
            reserved.cm_voc["server"]
        )
