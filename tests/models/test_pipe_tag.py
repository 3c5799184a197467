"""Tests for the pipes-as-TAG conversion used by CM+pipe (§5.1)."""

from __future__ import annotations

import pytest

from repro.core.bandwidth import uplink_requirement
from repro.models.pipe import pipe_tag_from_tag, pipes_from_tag
from repro.placement.base import Placement
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.topology.ledger import Ledger
from repro.workloads.patterns import three_tier


class TestPipeTagConversion:
    def test_structure(self, storm_tag):
        pipe_tag = pipe_tag_from_tag(storm_tag)
        components = pipe_tag.internal_components()
        assert components and all(c.size == 1 for c in components)
        assert not any(edge.is_self_loop for edge in pipe_tag.iter_edges())
        assert pipe_tag.size == storm_tag.size
        assert pipe_tag.num_tiers == storm_tag.size  # one VM per component

    def test_total_trunk_bandwidth_preserved(self, storm_tag):
        pipe_tag = pipe_tag_from_tag(storm_tag)
        pipes = pipes_from_tag(storm_tag)
        assert pipe_tag.total_bandwidth == pytest.approx(
            sum(pipe.bandwidth for pipe in pipes.pipes)
        )

    def test_pipe_requirements_never_exceed_tag(self):
        """With a fixed per-tier split, the rigid pipes can need at most
        the TAG's statistical-multiplexing-aware reservation."""
        tag = three_tier("t", (3, 3, 3), 90.0, 30.0, 0.0)
        pipe_tag = pipe_tag_from_tag(tag)
        # Put the whole web tier (VM names web:0..2) inside a subtree.
        inside_pipe = {f"web:{i}": 1 for i in range(3)}
        inside_tag = {"web": 3}
        pipe_demand = uplink_requirement(pipe_tag, inside_pipe)
        tag_demand = uplink_requirement(tag, inside_tag)
        assert pipe_demand.out <= tag_demand.out + 1e-9

    def test_cm_places_pipe_tags(self, small_datacenter):
        tag = three_tier("t", (3, 3, 3), 50.0, 20.0, 10.0)
        pipe_tag = pipe_tag_from_tag(tag)
        ledger = Ledger(small_datacenter)
        result = CloudMirrorPlacer(ledger).place(pipe_tag)
        assert isinstance(result, Placement)
        assert result.allocation.is_complete
