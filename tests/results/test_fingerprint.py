"""Trial fingerprints: stability, sensitivity, and exclusions."""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine import Scenario, TopologyCase, Variant
from repro.errors import ResultsError
from repro.placement.ha import HaPolicy
from repro.results import canonical_trial, register_codec, trial_fingerprint
from repro.results.codecs import _CODECS
from repro.topology.builder import DatacenterSpec

TINY = Scenario(
    name="tiny",
    title="t",
    kind="rejection",
    variants=(Variant("cm"), Variant("ovoc")),
    loads=(0.4, 0.7),
    bmaxes=(800.0,),
    seeds=(0, 1),
    arrivals=40,
    pods=1,
)


def fp(trial):
    return trial_fingerprint(trial)


class TestStability:
    def test_same_trial_same_fingerprint(self):
        first, second = TINY.expand()[0], TINY.expand()[0]
        assert first is not second
        assert fp(first) == fp(second)

    def test_fingerprint_is_hex_sha256(self):
        digest = fp(TINY.expand()[0])
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex

    def test_all_grid_points_distinct(self):
        trials = TINY.expand()
        assert len({fp(t) for t in trials}) == len(trials)

    def test_known_canonical_shape(self):
        document = canonical_trial(TINY.expand()[0])
        assert document["kind"] == "rejection"
        assert document["load"] == repr(0.4)  # floats via repr: bit-exact
        assert "scenario" not in document
        assert "index" not in document


class TestSensitivity:
    @pytest.mark.parametrize(
        "change",
        [
            {"seeds": (7,)},
            {"loads": (0.41,)},
            {"bmaxes": (801.0,)},
            {"arrivals": 41},
            {"pods": 2},
            {"params": (("guarantee", 1.0),)},
            {"variants": (Variant("cm", ha=HaPolicy(required_wcs=0.5)),)},
        ],
    )
    def test_axis_changes_change_fingerprint(self, change):
        base = TINY.override(variants=(Variant("cm"),), loads=(0.4,), seeds=(0,))
        changed = base.override(**change)
        assert fp(base.expand()[0]) != fp(changed.expand()[0])

    def test_scenario_name_and_index_excluded(self):
        # A fig07-style grid point is the same computation when another
        # scenario sweeps through it: cross-scenario cache sharing.
        renamed = dataclasses.replace(TINY, name="other")
        ours, theirs = TINY.expand()[3], renamed.expand()[3]
        assert ours.scenario != theirs.scenario
        assert fp(ours) == fp(theirs)
        shifted = dataclasses.replace(ours, index=99)
        assert fp(ours) == fp(shifted)

    def test_topology_label_excluded_spec_included(self):
        spec = DatacenterSpec(pods=1)
        a = TINY.override(topologies=(TopologyCase("label-a", spec),))
        b = TINY.override(topologies=(TopologyCase("label-b", spec),))
        assert fp(a.expand()[0]) == fp(b.expand()[0])
        wider = TINY.override(
            topologies=(TopologyCase("label-a", DatacenterSpec(pods=2)),)
        )
        assert fp(a.expand()[0]) != fp(wider.expand()[0])

    def test_codec_version_bump_invalidates(self):
        kind = "fp-version-test"
        scenario = dataclasses.replace(TINY, kind=kind)
        trial = scenario.expand()[0]
        unregistered = fp(trial)  # version 0: no codec yet
        try:
            register_codec(kind, version=1)
            v1 = fp(trial)
            register_codec(kind, version=2)
            v2 = fp(trial)
        finally:
            _CODECS.pop(kind, None)
        assert len({unregistered, v1, v2}) == 3

    def test_unfingerprintable_param_rejected(self):
        scenario = TINY.override(params=(("callback", object()),))
        with pytest.raises(ResultsError, match="cannot fingerprint"):
            fp(scenario.expand()[0])
