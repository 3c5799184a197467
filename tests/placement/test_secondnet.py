"""Tests for the SecondNet-style pipe placer."""

from __future__ import annotations

import pytest

from repro.placement.base import Placement, Rejection
from repro.placement.secondnet import SecondNetPlacer
from repro.topology.ledger import Ledger
from tests.fabrics import single_rack
from tests.tags import pipe_tag


class TestSecondNet:
    def test_places_three_tier(self, small_ledger, three_tier_tag):
        placer = SecondNetPlacer(small_ledger)
        result = placer.place(three_tier_tag)
        assert isinstance(result, Placement)
        allocation = result.allocation
        assert len(allocation.vm_server) == 12

    def test_reservations_follow_paths(self, small_ledger):
        """A single cross-server pipe reserves exactly its bandwidth on
        the up path of the source and down path of the destination."""
        placer = SecondNetPlacer(small_ledger)
        tag = pipe_tag("p", [("a", "b", 100.0)])
        result = placer.place(tag)
        assert isinstance(result, Placement)
        allocation = result.allocation
        topology = small_ledger.topology
        server_a = topology.node(allocation.vm_server["a:0"])
        server_b = topology.node(allocation.vm_server["b:0"])
        if server_a is not server_b:
            assert small_ledger.reserved_up(server_a) == pytest.approx(100.0)
            assert small_ledger.reserved_down(server_b) == pytest.approx(100.0)

    def test_colocated_pipes_cost_nothing(self, small_ledger):
        placer = SecondNetPlacer(small_ledger)
        tag = pipe_tag("p", [("a", "b", 1.0), ("b", "a", 1.0)])
        result = placer.place(tag)
        assert isinstance(result, Placement)
        total = sum(small_ledger.reserved_at_level(lv) for lv in range(3))
        # The placer prefers the peer's own rack/server: if colocated,
        # zero reservation; otherwise exactly the two pipes.
        assert total in (pytest.approx(0.0), pytest.approx(2.0))

    def test_infeasible_pipes_rejected_cleanly(self):
        topology = single_rack(servers=2, slots_per_server=1, nic_mbps=10.0)
        ledger = Ledger(topology)
        placer = SecondNetPlacer(ledger)
        tag = pipe_tag("p", [("a", "b", 100.0)])
        result = placer.place(tag)
        assert isinstance(result, Rejection)
        assert ledger.free_slots(topology.root) == 2
        assert ledger.reserved_at_level(0) == pytest.approx(0.0)

    def test_release(self, small_ledger, three_tier_tag):
        placer = SecondNetPlacer(small_ledger)
        result = placer.place(three_tier_tag)
        assert isinstance(result, Placement)
        result.allocation.release()
        assert small_ledger.free_slots(small_ledger.topology.root) == 512
        for level in range(3):
            assert small_ledger.reserved_at_level(level) == pytest.approx(0.0)

    def test_tier_spread_reporting(self, small_ledger, three_tier_tag):
        placer = SecondNetPlacer(small_ledger)
        result = placer.place(three_tier_tag)
        assert isinstance(result, Placement)
        spread = result.allocation.tier_spread("web", level=0)
        assert sum(spread.values()) == 4
