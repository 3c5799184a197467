"""Tests for the pipe baseline and the TAG -> pipes conversion."""

from __future__ import annotations

import pytest

from repro.errors import ModelError
from repro.models.pipe import Pipe, PipeSet, pipes_from_tag, vm_name
from tests.tags import hose_tag


class TestPipe:
    def test_self_pipe_rejected(self):
        with pytest.raises(ModelError):
            Pipe("a", "a", 1.0)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ModelError):
            Pipe("a", "b", -1.0)

    def test_pipeset_requires_known_vms(self):
        with pytest.raises(ModelError):
            PipeSet("p", vms=("a",), pipes=(Pipe("a", "b", 1.0),))


class TestPipesFromTag:
    def test_trunk_divided_uniformly(self, storm_tag):
        pipes = pipes_from_tag(storm_tag)
        assert len(pipes.vms) == 12
        spout_to_bolt1 = [
            p
            for p in pipes.iter_pipes()
            if p.src.startswith("spout1") and p.dst.startswith("bolt1")
        ]
        assert len(spout_to_bolt1) == 9
        # Aggregate 3*10 divided over 9 pairs.
        for pipe in spout_to_bolt1:
            assert pipe.bandwidth == pytest.approx(30.0 / 9)

    def test_self_loop_divided_over_peers(self):
        tag = hose_tag("h", size=4, bandwidth=90.0)
        pipes = pipes_from_tag(tag)
        # 4 VMs, each sends 90/3 to each of 3 peers.
        assert len(pipes.pipes) == 12
        for pipe in pipes.iter_pipes():
            assert pipe.bandwidth == pytest.approx(30.0)

    def test_single_vm_hose_has_no_pipes(self):
        tag = hose_tag("h", size=1, bandwidth=90.0)
        assert pipes_from_tag(tag).pipes == ()

    def test_total_bandwidth_preserved_for_trunks(self, three_tier_tag):
        pipes = pipes_from_tag(three_tier_tag)
        trunk_total = sum(
            three_tier_tag.edge_aggregate(e)
            for e in three_tier_tag.iter_edges()
            if not e.is_self_loop
        )
        pipe_trunk_total = sum(
            p.bandwidth
            for p in pipes.iter_pipes()
            if p.src.split(":")[0] != p.dst.split(":")[0]
        )
        assert pipe_trunk_total == pytest.approx(trunk_total)

    def test_vm_name_format(self):
        assert vm_name("web", 3) == "web:3"
