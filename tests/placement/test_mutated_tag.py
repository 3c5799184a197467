"""A mutated TAG is placed as it is now, never from what was derived before.

Everything placement derives from a tag (tier sizes, the Eq. 1 and VOC
edge tables, CloudMirror's search plan, SecondNet's pipe expansion, the
temporal peak tag) lives in the one memo ``Tag`` clears on every
mutation.  Each case places a tag, releases it, mutates the tag and
places it again with the *same* placer (or temporal cluster); the second
placement must equal placing a never-placed copy of the mutated tag on a
fresh ledger: same decision, same layout, bit-equal reservations on
every link.  A second suite pickles a placed tag: the memo stays behind
and the clone rebuilds it on first use.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.serialize import tag_from_dict, tag_to_dict
from repro.core.tag import Tag
from repro.placement.base import Placement
from repro.simulation.runner import make_placer
from repro.temporal.admission import TemporalCluster
from repro.temporal.profile import TemporalProfile, TemporalTag
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Ledger

SPEC = DatacenterSpec(
    servers_per_rack=16,
    racks_per_pod=4,
    pods=2,
    slots_per_server=4,
    server_uplink=1000.0,
    tor_oversub=4.0,
    agg_oversub=2.0,
)
# Dyadic factors keep every scaled reservation exact, so a departure
# leaves the planes at exactly zero, as a fresh cluster's are.
PROFILE = TemporalProfile((1.0, 0.5, 0.25, 0.75))
PATHS = ("cm", "ovoc", "secondnet", "temporal")

MUTATIONS = {
    "add_self_loop": lambda tag: tag.add_self_loop("a", 100.0),
    "add_edge": lambda tag: tag.add_edge("b", "a", 20.0, 20.0),
    "add_component": lambda tag: tag.add_component("c", 8),
}


def _tag() -> Tag:
    tag = Tag("mutated")
    tag.add_component("a", 60)
    tag.add_component("b", 4)
    tag.add_edge("a", "b", 10.0, 100.0)
    return tag


class _World:
    """One placement path on its own datacenter: ``place`` / ``release``."""

    def __init__(self, path: str) -> None:
        topology = three_level_tree(SPEC)
        if path == "temporal":
            self.cluster = TemporalCluster(None, len(PROFILE.factors), topology=topology)
            self.ledger = self.cluster.ledger
        else:
            self.ledger = Ledger(topology)
            self.placer = make_placer(path, self.ledger)
        self.path = path

    def place(self, tag: Tag):
        """A placement result, or a temporal admission (None: rejected)."""
        if self.path == "temporal":
            return self.cluster.admit(TemporalTag(tag, PROFILE))
        return self.placer.place(tag)

    def release(self, outcome) -> None:
        if self.path == "temporal":
            self.cluster.depart(outcome)
        else:
            outcome.allocation.release()

    def links(self) -> tuple:
        """Slot usage and every link's reservation (each window's, on a
        temporal ledger) as ``float.hex``."""
        ledger = self.ledger
        if hasattr(ledger, "_used_up"):
            blocks = (ledger._used_up, ledger._used_down)
        else:
            blocks = (ledger._up, ledger._down)
        hexes = [float(value).hex() for block in blocks for value in np.ravel(block)]
        return list(ledger._used_slots), hexes

    def observed(self, outcome) -> tuple:
        """Decision, layout and :meth:`links`, bit for bit."""
        if self.path == "temporal":
            decision = "placed" if outcome is not None else "rejected"
            allocation = None if outcome is None else outcome.allocation
        elif isinstance(outcome, Placement):
            decision, allocation = "placed", outcome.allocation
        else:
            decision, allocation = outcome.reason, None
        layout = allocation and sorted(
            (server_id, sorted(counts.items()))
            for server_id, counts in allocation.iter_server_placements()
        )
        return decision, layout, self.links()


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("path", PATHS)
def test_a_mutated_tag_is_placed_as_it_is_now(path, mutation):
    world = _World(path)
    tag = _tag()
    first = world.place(tag)
    assert world.observed(first)[0] == "placed"
    world.release(first)
    assert world.links() == _World(path).links()  # back to pristine
    MUTATIONS[mutation](tag)
    again = world.place(tag)

    fresh = _World(path)
    reference = fresh.place(tag_from_dict(tag_to_dict(tag)))
    assert world.observed(again) == fresh.observed(reference)


@pytest.mark.parametrize("path", PATHS)
def test_a_placed_tag_pickles_without_its_memo(path):
    world = _World(path)
    tag = _tag()
    outcome = world.place(tag)
    # The tag handed over, and the one the allocation holds (the
    # temporal path places the base's memoized peak copy).
    for placed in (tag, outcome.allocation.tag):
        assert placed._memo  # placement filled it
        assert placed.__getstate__()["_memo"] == {}
        clone = pickle.loads(pickle.dumps(placed))
        assert clone._memo == {}
        assert tag_to_dict(clone) == tag_to_dict(placed)

    clone = pickle.loads(pickle.dumps(tag))
    fresh, reference = _World(path), _World(path)
    assert fresh.observed(fresh.place(clone)) == reference.observed(
        reference.place(_tag())
    )
    assert clone._memo  # rebuilt on first use
