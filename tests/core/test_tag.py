"""Unit tests for the TAG model (paper §3)."""

from __future__ import annotations

import math

import pytest

from repro.core.tag import Component, Tag, TagEdge
from repro.errors import (
    DuplicateComponentError,
    DuplicateEdgeError,
    InvalidGuaranteeError,
    InvalidSizeError,
    TagError,
    UnknownComponentError,
)
from tests.tags import hose_tag


class TestComponent:
    def test_basic_component(self):
        component = Component("web", 4)
        assert component.name == "web"
        assert component.size == 4
        assert not component.external

    def test_size_must_be_positive(self):
        with pytest.raises(InvalidSizeError):
            Component("web", 0)
        with pytest.raises(InvalidSizeError):
            Component("web", -3)

    def test_only_external_may_omit_size(self):
        with pytest.raises(InvalidSizeError):
            Component("web", None)
        assert Component("internet", None, external=True).size is None

    def test_empty_name_rejected(self):
        with pytest.raises(TagError):
            Component("", 1)

    def test_fractional_size_rejected(self):
        with pytest.raises(InvalidSizeError):
            Component("web", 2.5)  # type: ignore[arg-type]


class TestTagEdge:
    def test_negative_guarantee_rejected(self):
        with pytest.raises(InvalidGuaranteeError):
            TagEdge("a", "b", -1.0, 5.0)

    def test_nan_guarantee_rejected(self):
        with pytest.raises(InvalidGuaranteeError):
            TagEdge("a", "b", math.nan, 5.0)

    def test_self_loop_requires_single_value(self):
        with pytest.raises(InvalidGuaranteeError):
            TagEdge("a", "a", 5.0, 7.0)
        edge = TagEdge("a", "a", 5.0, 5.0)
        assert edge.is_self_loop

    def test_scaled(self):
        edge = TagEdge("a", "b", 10.0, 20.0).scaled(2.5)
        assert edge.send == 25.0
        assert edge.recv == 50.0


class TestTagConstruction:
    def test_duplicate_component_rejected(self):
        tag = Tag()
        tag.add_component("web", 2)
        with pytest.raises(DuplicateComponentError):
            tag.add_component("web", 3)

    def test_edge_requires_known_components(self):
        tag = Tag()
        tag.add_component("web", 2)
        with pytest.raises(UnknownComponentError):
            tag.add_edge("web", "db", 1.0, 1.0)

    def test_duplicate_edge_rejected(self):
        tag = Tag()
        tag.add_component("a", 1)
        tag.add_component("b", 1)
        tag.add_edge("a", "b", 1.0, 1.0)
        with pytest.raises(DuplicateEdgeError):
            tag.add_edge("a", "b", 2.0, 2.0)

    def test_self_loop_via_add_edge_rejected(self):
        tag = Tag()
        tag.add_component("a", 2)
        with pytest.raises(TagError):
            tag.add_edge("a", "a", 1.0, 1.0)

    def test_self_loop_on_external_rejected(self):
        tag = Tag()
        tag.add_component("internet", external=True)
        with pytest.raises(TagError):
            tag.add_self_loop("internet", 1.0)

    def test_undirected_edge_adds_both_directions(self):
        tag = Tag()
        tag.add_component("a", 2)
        tag.add_component("b", 2)
        tag.add_undirected_edge("a", "b", 3.0, 4.0)
        assert tag.edge("a", "b").send == 3.0
        assert tag.edge("b", "a").send == 4.0


class TestTagQueries:
    def test_size_excludes_externals(self, three_tier_tag):
        three_tier_tag.add_component("internet", external=True)
        assert three_tier_tag.size == 12
        assert three_tier_tag.num_tiers == 3

    def test_out_in_edges_exclude_self_loop(self, three_tier_tag):
        out = {e.dst for e in three_tier_tag.out_edges("db")}
        assert out == {"logic"}
        into = {e.src for e in three_tier_tag.in_edges("db")}
        assert into == {"logic"}

    def test_per_vm_demand_sums_guarantees(self, three_tier_tag):
        out, into = three_tier_tag.per_vm_demand("db")
        # db sends: 100 to logic + 50 self-loop; receives the same.
        assert out == pytest.approx(150.0)
        assert into == pytest.approx(150.0)

    def test_per_vm_demand_logic(self, three_tier_tag):
        out, into = three_tier_tag.per_vm_demand("logic")
        assert out == pytest.approx(600.0)
        assert into == pytest.approx(600.0)

    def test_edge_aggregate_min_of_sides(self):
        tag = Tag()
        tag.add_component("small", 2)
        tag.add_component("large", 10)
        edge = tag.add_edge("small", "large", 100.0, 50.0)
        # min(2*100, 10*50) = 200
        assert tag.edge_aggregate(edge) == pytest.approx(200.0)

    def test_edge_aggregate_self_loop_counts_bytes_once(self):
        tag = hose_tag("h", size=4, bandwidth=100.0)
        loop = tag.self_loop("all")
        assert tag.edge_aggregate(loop) == pytest.approx(200.0)

    def test_edge_aggregate_unsized_external(self):
        tag = Tag()
        tag.add_component("web", 4)
        tag.add_component("internet", external=True)
        edge = tag.add_edge("web", "internet", 10.0, 10.0)
        assert tag.edge_aggregate(edge) == pytest.approx(40.0)

    def test_total_bandwidth(self, three_tier_tag):
        # web<->logic 2*2000 + logic<->db 2*400 + db hose 100
        assert three_tier_tag.total_bandwidth == pytest.approx(4900.0)

    def test_mean_per_vm_demand(self, three_tier_tag):
        # (500*4 + 600*4 + 150*4) / 12
        assert three_tier_tag.mean_per_vm_demand() == pytest.approx(1250.0 / 3)


class TestTagTransforms:
    def test_scaled_preserves_structure(self, three_tier_tag):
        scaled = three_tier_tag.scaled(2.0)
        assert scaled.size == three_tier_tag.size
        assert scaled.edge("web", "logic").send == 1000.0
        # Original untouched.
        assert three_tier_tag.edge("web", "logic").send == 500.0

    def test_scaled_rejects_negative(self, three_tier_tag):
        with pytest.raises(InvalidGuaranteeError):
            three_tier_tag.scaled(-1.0)

    def test_scaled_copy_is_independent(self, three_tier_tag):
        copy = three_tier_tag.scaled(1.0)
        copy.add_component("cache", 2)
        assert "cache" not in three_tier_tag.components


class TestDerivedQuantityCaches:
    """size / tier_sizes / mean_per_vm_demand are memoized on the Tag.

    Placement reads them on every arrival of a pool tag; the memo must
    never outlive a mutation, nor travel into a copy.
    """

    @staticmethod
    def _reference(tag: Tag) -> tuple[int, dict[str, int], float]:
        """The three quantities from the public component/edge views."""
        tiers = tag.internal_components()
        size = sum(c.size for c in tiers)
        total = 0.0
        for c in tiers:
            out = sum(e.send for e in tag.out_edges(c.name))
            into = sum(e.recv for e in tag.in_edges(c.name))
            loop = tag.self_loop(c.name)
            if loop is not None:
                out += loop.send
                into += loop.recv
            total += max(out, into) * c.size
        return size, {c.name: c.size for c in tiers}, total / size if size else 0.0

    def _read(self, tag: Tag) -> tuple[int, dict[str, int], float]:
        return tag.size, tag.tier_sizes(), tag.mean_per_vm_demand()

    def test_each_mutator_invalidates_every_memo(self, three_tier_tag):
        tag = three_tier_tag
        assert self._read(tag) == self._reference(tag) == self._read(tag)
        before = self._read(tag)

        tag.add_component("cache", 7)
        assert self._read(tag) == self._reference(tag)
        assert tag.size == before[0] + 7 and tag.tier_sizes()["cache"] == 7

        mean = tag.mean_per_vm_demand()
        tag.add_edge("web", "cache", send=900.0, recv=900.0)
        assert self._read(tag) == self._reference(tag)
        assert tag.mean_per_vm_demand() > mean

        mean = tag.mean_per_vm_demand()
        tag.add_self_loop("cache", 4000.0)
        assert self._read(tag) == self._reference(tag)
        assert tag.mean_per_vm_demand() > mean

        tag.add_component("internet", None, external=True)
        assert "internet" not in tag.tier_sizes()
        assert self._read(tag) == self._reference(tag)

    def test_empty_tag(self):
        tag = Tag("empty")
        assert self._read(tag) == (0, {}, 0.0)
        tag.add_component("a", 3)
        assert self._read(tag) == (3, {"a": 3}, 0.0)

    def test_tier_sizes_is_a_fresh_dict(self, three_tier_tag):
        sizes = three_tier_tag.tier_sizes()
        sizes["web"] = 99
        sizes["bogus"] = 1
        assert three_tier_tag.tier_sizes() == self._reference(three_tier_tag)[1]
        assert three_tier_tag.size == self._reference(three_tier_tag)[0]

    def test_copies_never_inherit_a_stale_memo(self, three_tier_tag):
        from repro.placement.state import _resize_tag

        tag = three_tier_tag
        warm = self._read(tag)
        doubled = tag.scaled(2.0)
        assert doubled.size == warm[0]
        assert doubled.mean_per_vm_demand() == 2.0 * warm[2]
        clone = tag.scaled(1.0)
        clone.add_component("cache", 2)
        assert self._read(clone) == self._reference(clone)
        assert self._read(tag) == warm  # and the original is untouched
        grown = _resize_tag(tag, "web", 3)
        assert grown.size == warm[0] + 3
        assert grown.tier_sizes()["web"] == warm[1]["web"] + 3
        assert self._read(grown) == self._reference(grown)
        assert self._read(tag) == warm

    def test_allocation_takes_a_private_copy_of_the_tier_map(self, three_tier_tag):
        from repro.placement.state import TenantAllocation
        from repro.topology.builder import DatacenterSpec, three_level_tree
        from repro.topology.ledger import Ledger

        ledger = Ledger(three_level_tree(DatacenterSpec(pods=1)))
        first = TenantAllocation(three_tier_tag, ledger)
        server = ledger.topology.servers[0]
        assert first.place(server.node_id, "web", 2, ledger.topology.root.node_id)
        assert first.remaining_tiers()["web"] == three_tier_tag.tier_sizes()["web"] - 2
        second = TenantAllocation(three_tier_tag, ledger)
        assert second.remaining_tiers() == three_tier_tag.tier_sizes()
