"""Tests for the time-varying guarantees extension (§6)."""

from __future__ import annotations

import random

import pytest

from repro.core.bandwidth import uplink_requirement
from repro.core.tag import Tag
from repro.errors import SimulationError
from repro.obs import core as obs
from repro.placement.base import Placement
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.temporal.admission import TemporalCluster
from repro.temporal.profile import TemporalProfile, TemporalTag, diurnal_profile
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Ledger
from repro.workloads import bing_pool
from repro.workloads.scaling import scale_pool


def web_tenant(scale: float = 1.0) -> Tag:
    tag = Tag("web")
    tag.add_component("front", 8)
    tag.add_component("back", 8)
    tag.add_edge("front", "back", 200.0 * scale, 200.0 * scale)
    tag.add_edge("back", "front", 200.0 * scale, 200.0 * scale)
    return tag


SPEC = DatacenterSpec(
    servers_per_rack=8,
    racks_per_pod=2,
    pods=2,
    slots_per_server=4,
    server_uplink=2000.0,
    tor_oversub=4.0,
    agg_oversub=2.0,
)


class TestProfile:
    def test_validation(self):
        with pytest.raises(SimulationError):
            TemporalProfile(())
        with pytest.raises(SimulationError):
            TemporalProfile((1.0, -0.5))

    def test_flat(self):
        profile = TemporalProfile.flat(4, 0.5)
        assert profile.windows == 4
        assert profile.peak == 0.5
        assert profile.mean == 0.5

    def test_diurnal_shape(self):
        profile = diurnal_profile(24, peak_window=14, trough=0.3)
        assert profile.windows == 24
        assert profile.factors[14] == pytest.approx(1.0)
        assert min(profile.factors) >= 0.3
        # Midnight side is near the trough.
        assert profile.factors[2] < 0.5

    def test_diurnal_antiphase(self):
        day = diurnal_profile(24, peak_window=12)
        night = diurnal_profile(24, peak_window=0)
        # Peaks do not coincide: summed demand stays well below 2x peak.
        combined = [d + n for d, n in zip(day.factors, night.factors)]
        assert max(combined) < 1.8


class TestTemporalTag:
    def test_window_scaling(self):
        tenant = TemporalTag(web_tenant(), TemporalProfile((1.0, 0.25)))
        assert tenant.at(0).edge("front", "back").send == 200.0
        assert tenant.at(1).edge("front", "back").send == 50.0
        assert tenant.at(2).edge("front", "back").send == 200.0  # cyclic

    def test_peak_tag(self):
        tenant = TemporalTag(web_tenant(), TemporalProfile((0.5, 0.9)))
        assert tenant.peak_tag().edge("front", "back").send == pytest.approx(
            180.0
        )

    def test_window_requirements(self):
        tenant = TemporalTag(web_tenant(), TemporalProfile((1.0, 0.5)))
        reqs = tenant.window_requirements({"front": 8}, uplink_requirement)
        assert reqs[0].out == pytest.approx(2.0 * reqs[1].out)


class TestTemporalCluster:
    def test_flat_profile_matches_classic(self):
        """One window under a flat profile *is* a classic ledger: the same
        decisions, layouts and per-uplink state after every churn step."""
        topology = three_level_tree(DatacenterSpec(pods=1))
        classic = CloudMirrorPlacer(Ledger(topology))
        temporal = TemporalCluster(None, 1, topology=topology)
        pool = [
            TemporalTag(tag, TemporalProfile.flat(1))
            for tag in scale_pool(bing_pool(tenants=40), 3000.0)
        ]
        rng = random.Random(2014)
        live, rejected = [], 0

        def layout(allocation):
            return sorted(
                (server.node_id, sorted(counts.items()))
                for server, counts in allocation.iter_server_placements()
            )

        for _ in range(2000):
            if live and rng.random() < 0.4:
                placed, admission = live.pop(rng.randrange(len(live)))
                placed.allocation.release()
                temporal.depart(admission)
            else:
                tenant = rng.choice(pool)
                placed = classic.place(tenant.base)
                admission = temporal.admit(tenant)
                assert isinstance(placed, Placement) == (admission is not None)
                if admission is None:
                    rejected += 1
                else:
                    assert layout(placed.allocation) == layout(admission.allocation)
                    live.append((placed, admission))
            one, planes = classic.ledger, temporal.ledger
            assert one._used_slots == planes._used_slots
            assert one._over == planes._over
            assert one._used_up == planes._max_up == planes._up
            assert one._used_down == planes._max_down == planes._down
        assert rejected > 100  # a tenth of ~1,200 arrivals, most on bandwidth

    def test_window_mismatch_rejected(self):
        cluster = TemporalCluster(SPEC, windows=4)
        tenant = TemporalTag(web_tenant(), TemporalProfile.flat(2))
        with pytest.raises(SimulationError):
            cluster.admit(tenant)

    def test_ratios_compile_once_per_profile(self):
        day = diurnal_profile(4, peak_window=1, trough=0.2)
        night = diurnal_profile(4, peak_window=3, trough=0.2)
        with obs.enabled_scope() as counters:
            cluster = TemporalCluster(SPEC, windows=4)
            for i in range(60):
                cluster.admit(
                    TemporalTag(web_tenant(0.4 + 0.1 * (i % 3)), day if i % 2 else night)
                )
            # Two distinct profiles: the memo means two compiles, never
            # one per arrival.
            assert counters.get("temporal.ratio_compiles", 0) <= 2

    def test_reservations_follow_profile(self):
        cluster = TemporalCluster(SPEC, windows=2)
        tenant = TemporalTag(web_tenant(), TemporalProfile((1.0, 0.25)))
        admission = cluster.admit(tenant)
        assert admission is not None
        peak_total = sum(
            cluster.ledger.planes[0].reserved_up(n)
            for n in cluster.topology.nodes
            if not n.is_root
        )
        trough_total = sum(
            cluster.ledger.planes[1].reserved_up(n)
            for n in cluster.topology.nodes
            if not n.is_root
        )
        if peak_total > 0:
            assert trough_total == pytest.approx(peak_total * 0.25)

    def test_antiphase_tenants_share_links(self):
        """The TIVC benefit: anti-correlated peaks overlap in time."""
        windows = 8
        day = TemporalProfile(
            tuple(1.0 if w < windows // 2 else 0.1 for w in range(windows))
        )
        night = TemporalProfile(
            tuple(0.1 if w < windows // 2 else 1.0 for w in range(windows))
        )
        temporal = TemporalCluster(SPEC, windows=windows)
        peak_only = TemporalCluster(SPEC, windows=windows)
        admitted_temporal = 0
        admitted_peak = 0
        for i in range(40):
            profile = day if i % 2 == 0 else night
            tenant = TemporalTag(web_tenant(1.2), profile)
            flattened = TemporalTag(
                web_tenant(1.2), TemporalProfile.flat(windows, profile.peak)
            )
            if temporal.admit(tenant) is not None:
                admitted_temporal += 1
            if peak_only.admit(flattened) is not None:
                admitted_peak += 1
        assert admitted_temporal >= admitted_peak

    def test_departure_releases_all_windows(self):
        cluster = TemporalCluster(SPEC, windows=3)
        tenant = TemporalTag(web_tenant(), TemporalProfile((1.0, 0.5, 0.2)))
        admission = cluster.admit(tenant)
        assert admission is not None
        cluster.depart(admission)
        assert cluster.admitted == []
        for window in range(3):
            for level in range(3):
                assert cluster.window_utilization(window, level) == pytest.approx(
                    0.0
                )
        assert cluster.ledger.free_slots(cluster.topology.root) == SPEC.total_slots

    def test_an_admission_departs_once(self):
        cluster = TemporalCluster(SPEC, windows=2)
        profile = TemporalProfile((1.0, 0.5))
        first = cluster.admit(TemporalTag(web_tenant(), profile))
        second = cluster.admit(TemporalTag(web_tenant(), profile))
        assert first is not None and second is not None
        cluster.depart(first)
        assert cluster.admitted == [second]
        with pytest.raises(SimulationError):
            cluster.depart(first)
        assert cluster.admitted == [second]

    def test_rejection_rolls_back_cleanly(self):
        cluster = TemporalCluster(SPEC, windows=1)
        # Every server fits its share (4 x 400 of 2000 Mbps), so VMs are
        # really placed before a rack's uplink (32 x 400 against 4000)
        # rejects the tenant, and the journal undoes them.
        tenant = TemporalTag(Tag.hose("hot", 64, 400.0), TemporalProfile.flat(1))
        before = [
            cluster.window_utilization(0, level) for level in range(3)
        ]
        with obs.enabled_scope() as counters:
            assert cluster.admit(tenant) is None
            # Reported under the classic ledger's counter name.
            assert counters["ledger.rollback_ops"] > 0
        assert cluster.rejected == 1
        after = [cluster.window_utilization(0, level) for level in range(3)]
        assert before == after
        assert cluster.ledger.free_slots(cluster.topology.root) == SPEC.total_slots
