"""Tests for the Poisson arrival stream and the load formula."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.core.tag import Tag
from repro.errors import SimulationError
from repro.simulation.arrivals import (
    Arrival,
    arrival_rate_for_load,
    arrival_stream,
    diurnal_arrivals,
    poisson_arrivals,
    trace_arrivals,
)


def _pool():
    tags = []
    for i, size in enumerate((10, 20, 30)):
        tag = Tag(f"t{i}")
        tag.add_component("app", size)
        tag.add_self_loop("app", 10.0)
        tags.append(tag)
    return tags


class TestLoadFormula:
    def test_paper_formula_inversion(self):
        # load = Ts * lambda * Td / slots  =>  lambda = load*slots/(Ts*Td)
        rate = arrival_rate_for_load(0.5, total_slots=51200, mean_tenant_size=57, mean_dwell=1.0)
        assert rate == pytest.approx(0.5 * 51200 / 57)

    def test_validation(self):
        with pytest.raises(SimulationError):
            arrival_rate_for_load(0.0, 100, 10, 1.0)
        with pytest.raises(SimulationError):
            arrival_rate_for_load(0.5, 100, 0, 1.0)


class TestPoissonArrivals:
    def test_count_and_monotone_times(self):
        arrivals = poisson_arrivals(_pool(), 100, 0.5, 1000, seed=3)
        assert len(arrivals) == 100
        times = [a.time for a in arrivals]
        assert times == sorted(times)
        assert all(a.dwell > 0 for a in arrivals)

    def test_uniform_tenant_sampling(self):
        arrivals = poisson_arrivals(_pool(), 3000, 0.5, 1000, seed=3)
        counts = np.bincount([a.tenant_index for a in arrivals], minlength=3)
        assert counts.min() > 800  # roughly uniform over 3 tenants

    def test_mean_interarrival_matches_rate(self):
        pool = _pool()
        load, slots = 0.5, 1000
        arrivals = poisson_arrivals(pool, 5000, load, slots, seed=1)
        mean_size = np.mean([t.size for t in pool])
        expected_gap = mean_size / (load * slots)
        gaps = np.diff([0.0] + [a.time for a in arrivals])
        assert np.mean(gaps) == pytest.approx(expected_gap, rel=0.1)

    def test_deterministic_by_seed(self):
        a = poisson_arrivals(_pool(), 50, 0.5, 1000, seed=9)
        b = poisson_arrivals(_pool(), 50, 0.5, 1000, seed=9)
        assert [(x.time, x.tenant_index) for x in a] == [
            (x.time, x.tenant_index) for x in b
        ]

    def test_validation(self):
        with pytest.raises(SimulationError):
            poisson_arrivals([], 10, 0.5, 1000)
        with pytest.raises(SimulationError):
            poisson_arrivals(_pool(), 0, 0.5, 1000)


class TestLoadFormulaEdgeCases:
    def test_rate_scales_inversely_with_dwell(self):
        # Doubling dwell halves the arrival rate needed for the same load.
        fast = arrival_rate_for_load(0.5, 1000, 10, mean_dwell=1.0)
        slow = arrival_rate_for_load(0.5, 1000, 10, mean_dwell=2.0)
        assert fast == pytest.approx(2 * slow)

    def test_vanishing_load_gives_vanishing_rate(self):
        # load -> 0+ stays valid and the rate goes to zero continuously.
        rate = arrival_rate_for_load(1e-12, 1000, 10, mean_dwell=1.0)
        assert 0 < rate < 1e-9

    def test_zero_slots_rejected(self):
        with pytest.raises(SimulationError):
            arrival_rate_for_load(0.5, 0, 10, 1.0)
        with pytest.raises(SimulationError):
            arrival_rate_for_load(0.5, 1000, 10, 0.0)

    def test_poisson_dwell_scaling(self):
        # Dwells are exponential with the requested mean; the arrival
        # spacing stretches so the offered load stays fixed.
        short = poisson_arrivals(_pool(), 4000, 0.5, 1000, mean_dwell=1.0, seed=2)
        long = poisson_arrivals(_pool(), 4000, 0.5, 1000, mean_dwell=4.0, seed=2)
        assert np.mean([a.dwell for a in long]) == pytest.approx(
            4 * np.mean([a.dwell for a in short]), rel=0.05
        )
        assert long[-1].time == pytest.approx(4 * short[-1].time, rel=0.05)


class TestArrivalStream:
    def test_identical_to_materialized_when_block_covers_count(self):
        materialized = poisson_arrivals(_pool(), 200, 0.5, 1000, seed=5)
        streamed = list(
            arrival_stream(_pool(), 200, 0.5, 1000, seed=5, block=200)
        )
        assert streamed == materialized

    def test_small_blocks_keep_count_and_monotonicity(self):
        streamed = list(
            arrival_stream(_pool(), 100, 0.5, 1000, seed=5, block=7)
        )
        assert len(streamed) == 100
        times = [a.time for a in streamed]
        assert times == sorted(times)
        assert all(a.dwell > 0 for a in streamed)
        assert all(0 <= a.tenant_index < 3 for a in streamed)

    def test_validation(self):
        # No list(), no next(): a bad argument must surface where the
        # stream is built, not inside whichever loop first pulls from it.
        with pytest.raises(SimulationError):
            arrival_stream([], 10, 0.5, 1000)
        with pytest.raises(SimulationError):
            arrival_stream(_pool(), 0, 0.5, 1000)
        with pytest.raises(SimulationError):
            arrival_stream(_pool(), 10, 0.5, 1000, block=0)
        with pytest.raises(SimulationError):
            arrival_stream(_pool(), 10, 0.5, 1000, mean_dwell=0.0)
        with pytest.raises(SimulationError):
            arrival_stream(_pool(), 10, 0.0, 1000)


class TestDiurnalArrivals:
    def test_count_monotone_and_load_preserving(self):
        flat = list(arrival_stream(_pool(), 4000, 0.5, 1000, seed=3))
        cyclic = list(
            diurnal_arrivals(_pool(), 4000, 0.5, 1000, seed=3, day_length=0.5)
        )
        assert len(cyclic) == 4000
        times = [a.time for a in cyclic]
        assert times == sorted(times)
        # Factors are normalized by their mean, so the time-averaged rate
        # (total span for the same event count) matches the flat stream.
        assert cyclic[-1].time == pytest.approx(flat[-1].time, rel=0.15)

    def test_rate_modulation_follows_factors(self):
        # A 2-window day with a 9:1 ratio should cram most arrivals into
        # the fast half-day windows.
        cyclic = list(
            diurnal_arrivals(
                _pool(), 6000, 0.5, 1000,
                factors=(9.0, 1.0), day_length=1.0, seed=4,
            )
        )
        window_length = 0.5
        fast = sum(
            1 for a in cyclic if int(a.time / window_length) % 2 == 0
        )
        assert fast / len(cyclic) > 0.8

    def test_validation(self):
        # The call raises, as for arrival_stream.
        with pytest.raises(SimulationError):
            diurnal_arrivals(_pool(), 10, 0.5, 1000, factors=(1.0, 0.0))
        with pytest.raises(SimulationError):
            diurnal_arrivals(_pool(), 10, 0.5, 1000, factors=())
        with pytest.raises(SimulationError):
            diurnal_arrivals(_pool(), 10, 0.5, 1000, day_length=0.0)
        with pytest.raises(SimulationError):
            diurnal_arrivals([], 10, 0.5, 1000)
        with pytest.raises(SimulationError):
            diurnal_arrivals(_pool(), 0, 0.5, 1000)
        with pytest.raises(SimulationError):
            diurnal_arrivals(_pool(), 10, 0.5, 1000, block=-1)


class TestTraceArrivals:
    def test_passthrough(self):
        events = [(0.0, 0, 1.0), (0.5, 2, 0.25), (0.5, 1, 3.0)]
        arrivals = list(trace_arrivals(events, pool_size=3))
        assert [(a.time, a.tenant_index, a.dwell) for a in arrivals] == events

    def test_streams_without_materializing(self):
        def generate():
            for i in range(10):
                yield (float(i), i % 3, 1.0)

        stream = trace_arrivals(generate(), pool_size=3)
        first = next(stream)
        assert first.time == 0.0  # consumed lazily, one event at a time

    def test_validation(self):
        with pytest.raises(SimulationError, match="non-decreasing"):
            list(trace_arrivals([(1.0, 0, 1.0), (0.5, 0, 1.0)]))
        with pytest.raises(SimulationError, match="dwell"):
            list(trace_arrivals([(0.0, 0, 0.0)]))
        with pytest.raises(SimulationError, match="out of range"):
            list(trace_arrivals([(0.0, 5, 1.0)], pool_size=3))
        with pytest.raises(SimulationError, match="out of range"):
            list(trace_arrivals([(0.0, -1, 1.0)]))

    def test_nan_time_does_not_switch_the_order_check_off(self):
        # nan < last and nan <= 0 are both false: this trace used to be
        # yielded whole, the -5.0 never compared against anything.
        events = [(0.0, 0, 1.0), (math.nan, 0, math.nan), (-5.0, 0, 1.0)]
        with pytest.raises(SimulationError, match="row 1"):
            list(trace_arrivals(events))

    @pytest.mark.parametrize(
        "bad",
        [
            (math.nan, 0, 1.0),  # NaN time
            (math.inf, 0, 1.0),  # infinite time
            (1.0, 0, math.nan),  # NaN dwell
            (1.0, 0, -1.0),  # negative dwell
            (1.0, 0.5, 1.0),  # fractional index: int() would truncate it
            (1.0, math.nan, 1.0),
            (1.0, math.inf, 1.0),
            (1.0, 0),  # too short
            (1.0, 0, 1.0, 7),  # too long
            ("soon", 0, 1.0),  # non-numeric
            (1.0, "zero", 1.0),
            (1.0, 0, None),
            None,  # not a row at all
            (0.5, 0, 1.0),  # well-formed, but earlier than row 1
            (1.0, 3, 1.0),  # well-formed, but outside the pool
        ],
    )
    def test_every_malformed_row_is_a_simulation_error_naming_it(self, bad):
        events = [(0.0, 0, 1.0), (1.0, 2, math.inf), bad, (9.0, 0, 1.0)]
        stream = trace_arrivals(events, pool_size=3)
        assert [next(stream), next(stream)] == [
            Arrival(0.0, 0, 1.0),
            Arrival(1.0, 2, math.inf),  # an infinite dwell never departs
        ]
        with pytest.raises(SimulationError, match="trace row 2"):
            next(stream)

    def test_integral_indices_of_any_numeric_type_pass_as_ints(self):
        events = [(np.float64(0.5), np.int64(1), np.float32(2.0)), (1, 2.0, 3)]
        arrivals = list(trace_arrivals(events, pool_size=3))
        assert arrivals == [(0.5, 1, 2.0), (1.0, 2, 3.0)]
        for arrival in arrivals:
            assert type(arrival.time) is float
            assert type(arrival.tenant_index) is int
            assert type(arrival.dwell) is float


# SHA-256 of repr() of the first 10,000 records at seed 2014, computed on
# the commit before the records became list-backed NamedTuples (c141855).
# They pin every value of every stream, not its statistics.
STREAM_PINS = {
    "poisson": "5254e72bd55a07622739dbb6e904d3d8f98ab5a28292aac954ac09c95faf7ff9",
    "stream-8192": "c8512ab849779c1f3ebc0b5a789b99b18bb90268840f087c9274f1b58e301dbf",
    "stream-1000": "bad5f0fc90b7a4f357631edaa52dbd1ed0ed5af5c0568241f2fdd3a932385029",
    "diurnal": "ca1be314e6785063ef16c64a427a3e92d1c5ee4cf35275b166201fbc40f4d52a",
}


def _pinned_streams():
    args = (_pool(), 10_000, 0.5, 1000)
    return {
        "poisson": poisson_arrivals(*args, seed=2014),
        "stream-8192": arrival_stream(*args, seed=2014),
        "stream-1000": arrival_stream(*args, seed=2014, block=1000),
        "diurnal": diurnal_arrivals(*args, seed=2014),
    }


class TestStreamValues:
    @pytest.mark.parametrize("name", sorted(STREAM_PINS))
    def test_values_are_pinned_and_plain_python(self, name):
        records = list(_pinned_streams()[name])
        assert len(records) == 10_000
        assert hashlib.sha256(repr(records).encode()).hexdigest() == STREAM_PINS[name]
        # No numpy scalar may leak into a heap key or a report.
        for record in records:
            assert type(record) is Arrival
            assert type(record.time) is float
            assert type(record.tenant_index) is int
            assert type(record.dwell) is float

    def test_one_block_stream_equals_the_materialized_list(self):
        streams = _pinned_streams()
        whole = list(arrival_stream(_pool(), 10_000, 0.5, 1000, seed=2014, block=10_000))
        assert whole == streams["poisson"]
        # ... and the default 8192 block is a different, equally valid draw.
        assert list(streams["stream-8192"]) != whole

    def test_streams_are_lazy_single_pass_iterators(self):
        stream = arrival_stream(_pool(), 10**9, 0.5, 1000, seed=1, block=16)
        assert iter(stream) is stream
        first = next(stream)
        assert first == next(arrival_stream(_pool(), 16, 0.5, 1000, seed=1, block=16))


class TestArrivalRecord:
    def test_fields_constructor_equality_immutability(self):
        arrival = Arrival(1.5, 2, 0.25)
        assert Arrival._fields == ("time", "tenant_index", "dwell")
        assert (arrival.time, arrival.tenant_index, arrival.dwell) == (1.5, 2, 0.25)
        assert arrival == Arrival(time=1.5, tenant_index=2, dwell=0.25)
        assert arrival != Arrival(1.5, 2, 0.5)
        assert hash(arrival) == hash(Arrival(1.5, 2, 0.25))
        time, index, dwell = arrival
        assert (time, index, dwell) == (1.5, 2, 0.25)
        with pytest.raises(AttributeError):
            arrival.time = 2.0
        assert repr(arrival) == "Arrival(time=1.5, tenant_index=2, dwell=0.25)"
