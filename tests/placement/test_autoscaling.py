"""Tests for the auto-scaling extension (paper §6 / §3 flexibility).

The TAG's key auto-scaling property: per-VM guarantees do not change
when tier sizes change; placement grows/shrinks the reservation state
exactly and reversibly.
"""

from __future__ import annotations

import pytest

from repro.core.tag import Tag
from repro.errors import ReproError, TagError
from repro.placement.base import Placement
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.topology.ledger import Ledger
from tests.fabrics import single_rack
from tests.tags import hose_tag


@pytest.fixture
def placed(small_ledger):
    placer = CloudMirrorPlacer(small_ledger)
    tag = Tag("svc")
    tag.add_component("web", 10)
    tag.add_component("db", 4)
    tag.add_edge("web", "db", 50.0, 125.0)
    tag.add_self_loop("db", 20.0)
    result = placer.place(tag)
    assert isinstance(result, Placement)
    return placer, result.allocation


class TestScaleUp:
    def test_grows_size_and_placement(self, placed):
        placer, allocation = placed
        assert placer.scale_up(allocation, "web", 6)
        assert allocation.tag.component("web").size == 16
        assert allocation.placed_vms == 20
        assert allocation.finalized
        assert not allocation.ledger.has_overcommit()

    def test_guarantees_unchanged(self, placed):
        placer, allocation = placed
        placer.scale_up(allocation, "web", 6)
        edge = allocation.tag.edge("web", "db")
        assert edge.send == 50.0
        assert edge.recv == 125.0

    def test_reservations_match_new_size(self, placed):
        placer, allocation = placed
        assert placer.scale_up(allocation, "web", 6)
        for node_id, counts in allocation.iter_node_counts():
            if node_id == allocation.ledger.flat.root_id:
                continue
            expected = allocation.requirement(allocation.tag, counts)
            assert allocation.reserved_on(node_id).out == pytest.approx(expected.out)
            assert allocation.reserved_on(node_id).into == pytest.approx(
                expected.into
            )

    def test_failed_scale_up_is_a_noop(self, placed):
        placer, allocation = placed
        ledger = allocation.ledger
        before_slots = ledger.free_slots(ledger.topology.root)
        before = {
            node_id: allocation.reserved_on(node_id)
            for node_id, _ in allocation.iter_node_counts()
        }
        # Far more VMs than the datacenter has slots.
        assert not placer.scale_up(allocation, "web", 10_000)
        assert allocation.tag.component("web").size == 10
        assert allocation.finalized
        assert ledger.free_slots(ledger.topology.root) == before_slots
        for node_id, _ in allocation.iter_node_counts():
            if node_id in before:
                assert allocation.reserved_on(node_id) == before[node_id]

    def test_bandwidth_constrained_scale_up_fails_cleanly(self):
        topology = single_rack(servers=4, slots_per_server=4, nic_mbps=100.0)
        ledger = Ledger(topology)
        placer = CloudMirrorPlacer(ledger)
        tag = Tag("svc")
        tag.add_component("a", 2)
        tag.add_component("b", 2)
        tag.add_edge("a", "b", 40.0, 40.0)
        result = placer.place(tag)
        assert isinstance(result, Placement)
        allocation = result.allocation
        free_before = ledger.free_slots(topology.root)
        # Growing b to 14 needs 12 more slots but also inflates trunk
        # demand beyond the rack NICs; either way a clean False.
        grew = placer.scale_up(allocation, "b", 12)
        if not grew:
            assert ledger.free_slots(topology.root) == free_before
        assert not ledger.has_overcommit()

    def test_requires_finalized(self, small_ledger):
        from repro.placement.state import TenantAllocation

        tag = Tag("t")
        tag.add_component("a", 2)
        allocation = TenantAllocation(tag, small_ledger)
        with pytest.raises(ReproError):
            allocation.begin_scale_up("a", 1)


class TestScaleDown:
    def test_shrinks_and_releases(self, placed):
        placer, allocation = placed
        ledger = allocation.ledger
        free_before = ledger.free_slots(ledger.topology.root)
        placer.scale_down(allocation, "web", 4)
        assert allocation.tag.component("web").size == 6
        assert allocation.placed_vms == 10
        assert ledger.free_slots(ledger.topology.root) == free_before + 4
        assert not ledger.has_overcommit()

    def test_reservations_exact_after_shrink(self, placed):
        placer, allocation = placed
        placer.scale_down(allocation, "web", 5)
        for node_id, counts in allocation.iter_node_counts():
            if node_id == allocation.ledger.flat.root_id:
                continue
            expected = allocation.requirement(allocation.tag, counts)
            assert allocation.reserved_on(node_id).out == pytest.approx(expected.out)

    def test_equal_holders_leave_in_server_order(self, small_datacenter):
        """The tie-break is a function of the layout, not of the order the
        search touched the servers in (a failed real try leaves an empty
        entry in ``_counts``; a probe reject or a memo hit does not)."""
        from repro.placement.state import TenantAllocation

        tag = hose_tag("t", 6, 10.0)
        root = small_datacenter.root
        servers = sorted(small_datacenter.servers[:3], key=lambda s: s.node_id)
        layouts = []
        for order in (servers, servers[::-1]):
            allocation = TenantAllocation(tag, Ledger(small_datacenter))
            for server in order:
                assert allocation.place(server.node_id, "all", 2, root.node_id)
            assert allocation.finalize(root.node_id)
            allocation.scale_down("all", 3)
            layouts.append(
                {s: dict(c) for s, c in allocation.iter_server_placements()}
            )
        # Three holders of two: the lowest id empties, the next gives one.
        low, mid, high = (server.node_id for server in servers)
        assert layouts[0] == layouts[1] == {mid: {"all": 1}, high: {"all": 2}}

    def test_cannot_remove_entire_tier(self, placed):
        placer, allocation = placed
        with pytest.raises(ReproError):
            placer.scale_down(allocation, "web", 10)

    def test_release_after_scaling_is_clean(self, placed):
        placer, allocation = placed
        placer.scale_up(allocation, "db", 3)
        placer.scale_down(allocation, "web", 2)
        ledger = allocation.ledger
        allocation.release()
        assert ledger.free_slots(ledger.topology.root) == 512
        for level in range(3):
            assert ledger.reserved_at_level(level) == pytest.approx(0.0)


class TestResizeValidation:
    def test_cannot_resize_external(self, small_ledger):
        from repro.placement.state import _resize_tag

        tag = Tag("t")
        tag.add_component("a", 2)
        tag.add_component("internet", external=True)
        with pytest.raises(TagError):
            _resize_tag(tag, "internet", 1)
