"""The four benchmark workloads, built only from ``repro``'s public names.

Each workload separates three things the harness times differently:

* ``__init__`` + :meth:`Workload.warm_up` — set-up (``setup_s``): pool,
  topology with its flat arrays, and one placement + release of every
  pool tenant so the per-tag caches are full before anything is timed;
* :meth:`Workload.fresh` — per-repetition mutable state (ledger, placer,
  candidate index), built outside the timed region;
* :meth:`Workload.run` — the timed region itself.

``--seed`` always changes the inputs, but by how much depends on what
the workload's cost can bear (``seed_role`` in ``workloads.json``): the
two small-tenant streams are redrawn from the seed, while the bing trace
and the scenario grid are pinned and the seed only permutes them —
their per-arrival cost is heavy-tailed and state-dependent, and a
redrawn trace moves ``events_per_s`` by ±30 % at any affordable length
(README, "Seeds").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from heapq import heappop, heappush
from time import perf_counter

import numpy as np

from repro.engine import registry
from repro.engine.runners import execute_trial
from repro.engine.scenario import Variant
from repro.placement import HaPolicy, Placement
from repro.results.codecs import codec_for
from repro.simulation.arrivals import Arrival, arrival_stream, poisson_arrivals
from repro.simulation.runner import make_placer
from repro.simulation.service import ServiceLoop, ledger_fingerprint
from repro.temporal import TemporalCluster, TemporalTag, diurnal_profile
from repro.topology import DatacenterSpec, Ledger, three_level_tree
from repro.workloads import bing_pool
from repro.workloads.patterns import three_tier
from repro.workloads.scaling import scale_pool

from harness import TimedPlacer, load_spec

RESIDUAL_LIMIT = 1e-6  # of link capacity, after every allocation is released


def _scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, int(count * scale))


def _svc_pool(tenants: int):
    """The 5-8-VM three-tier service pool of ``BENCH_service_scale``."""
    return [
        three_tier(
            f"svc-{i}", (2 + i % 3, 2, 1 + i % 2), b1=20.0, b2=10.0, b3=5.0
        )
        for i in range(tenants)
    ]


def _numbered(events, cell: list[int]):
    """Traced repetitions only: expose the current arrival ordinal."""
    for ordinal, event in enumerate(events):
        cell[0] = ordinal
        yield event


@dataclass
class Repetition:
    """What one timed repetition hands back to the harness."""

    stamps: list[float]  # start, end of every timed call, flat
    outcomes: bytes  # one byte per timed call: 1 admitted, 0 rejected
    digest: str  # pins the decisions (and payloads, for the grid)
    fingerprint: str | None  # ledger end-state, where one exists
    offered_bw: float = 0.0
    rejected_bw: float = 0.0
    ordinals: list[int] = field(default_factory=list)  # traced runs only
    extra: dict = field(default_factory=dict)
    state: object = None  # live ledger/cluster, for the drain check
    start: float = 0.0  # the timed region, stamped by the harness
    end: float = 0.0


class Workload:
    """Common surface; see the module docstring for the three phases."""

    name = ""
    call_name = "placer.place"
    loop_kind = "service"

    def __init__(
        self, params: dict, seed: int, scale: float = 1.0, held_out: bool = False
    ) -> None:
        self.params = params
        self.seed = seed
        self.scale = scale
        self.events = 0
        # Replay workloads pin their trace; the others are their seed.
        if "trace_seed" in params:
            self.trace_seed = params[
                "held_out_trace_seed" if held_out else "trace_seed"
            ]
            self.input_id = f"trace-{self.trace_seed}"
        else:
            self.input_id = f"seed-{seed}"

    def warm_up(self) -> None:
        raise NotImplementedError

    def fresh(self, numbered: bool = False):
        raise NotImplementedError

    def run(self, state) -> None:
        raise NotImplementedError

    def finish(self, state) -> Repetition:
        raise NotImplementedError

    def drain(self, repetition: Repetition) -> list[dict]:
        return []


def _drain_checks(ledger, topology, release_all) -> list[dict]:
    """Overcommit, then release everything and look for what is left."""
    checks = [
        {
            "name": "no_overcommit",
            "ok": not ledger.has_overcommit(),
            "detail": "ledger.has_overcommit() after the last repetition",
        }
    ]
    release_all()
    used = sum(ledger.used_slots(server) for server in topology.servers)
    free = ledger.free_slots(topology.root)
    checks.append(
        {
            "name": "drain_slots",
            "ok": used == 0 and free == topology.total_slots,
            "detail": f"{used} slots still used, {free}/{topology.total_slots} free",
        }
    )
    residual = 0.0
    for node in topology.nodes:
        for reserved, capacity in (
            (ledger.reserved_up(node), node.uplink_up),
            (ledger.reserved_down(node), node.uplink_down),
        ):
            if reserved and capacity > 0:
                residual = max(residual, abs(reserved) / capacity)
    checks.append(
        {
            "name": "drain_bandwidth",
            "ok": residual < RESIDUAL_LIMIT,
            "detail": f"largest per-link residual {residual:.3e} of capacity",
        }
    )
    return checks


# ----------------------------------------------------------------------
# ServiceLoop workloads
# ----------------------------------------------------------------------
class _ServiceWorkload(Workload):
    """A ``ServiceLoop`` over a classic ledger, timed at ``placer.place``."""

    def _setup(self, pool, pods: int) -> None:
        self.pool = pool
        self.topology = three_level_tree(DatacenterSpec(pods=pods))
        self.topology.flat  # noqa: B018 - flat arrays are set-up, not timed

    def _events(self):
        raise NotImplementedError

    def warm_up(self) -> None:
        ledger = Ledger(self.topology)
        placer = make_placer(self.params["placer"], ledger)
        for tag in self.pool:
            result = placer.place(tag)
            if isinstance(result, Placement):
                result.allocation.release()

    def fresh(self, numbered: bool = False):
        ledger = Ledger(self.topology)
        proxy = TimedPlacer(make_placer(self.params["placer"], ledger))
        cell, ordinals = ([0], []) if numbered else (None, [])
        loop = ServiceLoop(
            ledger,
            _OrdinalTap(proxy, cell, ordinals) if numbered else proxy,
            self.pool,
            cohort=self.params["cohort"],
        )
        return {
            "ledger": ledger,
            "proxy": proxy,
            "loop": loop,
            "cell": cell,
            "ordinals": ordinals,
        }

    def run(self, state) -> None:
        events = self._events()
        if state["cell"] is not None:
            events = _numbered(events, state["cell"])
        state["report"] = state["loop"].run(events)

    def finish(self, state) -> Repetition:
        proxy = state["proxy"]
        report = state["report"]
        ledger = state["ledger"]
        outcomes = bytes(
            isinstance(result, Placement) for result in proxy.results()
        )
        counters = tuple(
            report[key]
            for key in (
                "arrivals",
                "accepted",
                "rejected",
                "departures",
                "vms_rejected",
            )
        )
        digest = hashlib.sha256(outcomes + repr(counters).encode()).hexdigest()
        index = ledger.ensure_candidate_index().stats()
        return Repetition(
            stamps=proxy.stamps(),
            outcomes=outcomes,
            digest=digest,
            fingerprint=ledger_fingerprint(ledger),
            offered_bw=report["bw_total"],
            rejected_bw=report["bw_rejected"],
            ordinals=state["ordinals"],
            extra={
                "cohorts": report["cohorts"],
                "index_entries": index["level_entries"] + index["rack_entries"],
            },
            state=state,
        )

    def drain(self, repetition: Repetition) -> list[dict]:
        state = repetition.state
        live = [
            result.allocation
            for result in state["proxy"].results()
            if isinstance(result, Placement) and result.allocation.placed_vms
        ]

        def release_all():
            for allocation in live:
                allocation.release()

        return _drain_checks(state["ledger"], self.topology, release_all)


class _OrdinalTap:
    """Traced repetitions only: note which arrival each placer call serves."""

    __slots__ = ("_place", "_cell", "_ordinals")

    def __init__(self, proxy: TimedPlacer, cell: list[int], ordinals: list[int]):
        self._place = proxy.place
        self._cell = cell
        self._ordinals = ordinals

    def place(self, tag):
        self._ordinals.append(self._cell[0])
        return self._place(tag)


class SvcOverload(_ServiceWorkload):
    name = "svc_overload"

    def __init__(self, params, seed, scale=1.0, held_out=False):
        super().__init__(params, seed, scale, held_out)
        self._setup(_svc_pool(params["tenants"]), params["pods"])
        self.events = _scaled(params["arrivals"], scale, 2_000)

    def _events(self):
        # Lazily generated, so arrival generation is inside the timed region.
        return arrival_stream(
            self.pool,
            self.events,
            self.params["load"],
            self.topology.total_slots,
            seed=self.seed,
        )


class BingChurn(_ServiceWorkload):
    name = "bing_churn"

    def __init__(self, params, seed, scale=1.0, held_out=False):
        super().__init__(params, seed, scale, held_out)
        canonical = scale_pool(bing_pool(), params["bmax"])
        self.events = _scaled(params["arrivals"], scale, 40)
        self._setup(canonical, params["pods"])
        trace = poisson_arrivals(
            canonical,
            self.events,
            params["load"],
            self.topology.total_slots,
            seed=self.trace_seed,
        )
        # The seed relabels the pool; the pinned trace follows its tenants.
        order = np.random.default_rng(seed).permutation(len(canonical))
        moved_to = {int(old): new for new, old in enumerate(order)}
        self.pool = [canonical[int(old)] for old in order]
        self.trace = [
            Arrival(event.time, moved_to[event.tenant_index], event.dwell)
            for event in trace
        ]

    def _events(self):
        return self.trace


# ----------------------------------------------------------------------
# temporal_churn: the benchmark's own heap loop over TemporalCluster
# ----------------------------------------------------------------------
class TemporalChurn(Workload):
    name = "temporal_churn"
    call_name = "TemporalCluster.admit"
    loop_kind = "temporal"

    def __init__(self, params, seed, scale=1.0, held_out=False):
        super().__init__(params, seed, scale, held_out)
        self.windows = params["windows"]
        self.base = _svc_pool(params["tenants"])
        phases = params["phases"]
        profiles = [
            diurnal_profile(
                self.windows,
                peak_window=(self.windows * phase) // phases,
                trough=params["trough"],
            )
            for phase in range(phases)
        ]
        self.pool = [
            TemporalTag(tag, profiles[i % phases])
            for i, tag in enumerate(self.base)
        ]
        self.bandwidth = [tag.total_bandwidth for tag in self.base]
        self.topology = three_level_tree(DatacenterSpec(pods=params["pods"]))
        self.topology.flat  # noqa: B018
        self.events = _scaled(params["arrivals"], scale, 300)

    def _cluster(self) -> TemporalCluster:
        return TemporalCluster(None, self.windows, topology=self.topology)

    def warm_up(self) -> None:
        cluster = self._cluster()
        for tenant in self.pool:
            admission = cluster.admit(tenant)
            if admission is not None:
                cluster.depart(admission)

    def fresh(self, numbered: bool = False):
        return {
            "cluster": self._cluster(),
            "stamps": [],
            "outcomes": bytearray(),
            "tenants": bytearray(),
        }

    def run(self, state) -> None:
        cluster = state["cluster"]
        admit, depart = cluster.admit, cluster.depart
        pool = self.pool
        stamps = state["stamps"]
        outcomes = state["outcomes"]
        tenants = state["tenants"]
        departures: list = []
        sequence = 0
        events = arrival_stream(
            self.base,
            self.events,
            self.params["load"],
            self.topology.total_slots,
            seed=self.seed,
        )
        for arrival in events:
            now = arrival.time
            while departures and departures[0][0] <= now:
                depart(heappop(departures)[2])
            index = arrival.tenant_index
            start = perf_counter()
            admission = admit(pool[index])
            end = perf_counter()
            stamps += (start, end)
            tenants.append(index)
            if admission is None:
                outcomes.append(0)
            else:
                outcomes.append(1)
                sequence += 1
                heappush(departures, (now + arrival.dwell, sequence, admission))

    def finish(self, state) -> Repetition:
        cluster = state["cluster"]
        outcomes = bytes(state["outcomes"])
        bandwidth = self.bandwidth
        offered = rejected = 0.0
        for index, admitted in zip(state["tenants"], outcomes):
            offered += bandwidth[index]
            if not admitted:
                rejected += bandwidth[index]
        index = cluster.ledger.ensure_candidate_index().stats()
        return Repetition(
            stamps=state["stamps"],
            outcomes=outcomes,
            digest=hashlib.sha256(outcomes).hexdigest(),
            fingerprint=ledger_fingerprint(cluster.ledger),
            offered_bw=offered,
            rejected_bw=rejected,
            ordinals=list(range(len(outcomes))),
            extra={
                "index_entries": index["level_entries"] + index["rack_entries"],
            },
            state=state,
        )

    def drain(self, repetition: Repetition) -> list[dict]:
        cluster = repetition.state["cluster"]

        def release_all():
            for admission in cluster.admitted:
                cluster.depart(admission)

        return _drain_checks(cluster.ledger, self.topology, release_all)


# ----------------------------------------------------------------------
# paper_grid: registered scenarios, trial by trial
# ----------------------------------------------------------------------
class PaperGrid(Workload):
    name = "paper_grid"
    call_name = "execute_trial+encode"
    loop_kind = "grid"

    def __init__(self, params, seed, scale=1.0, held_out=False):
        super().__init__(params, seed, scale, held_out)
        self.trials = []  # (entry index, kind, codec, trial), canonical order
        self.first_of_entry = []
        for number, entry in enumerate(params["entries"]):
            scenario = registry.get(entry["scenario"]).scenario.override(
                **self._overrides(entry)
            )
            codec = codec_for(scenario.kind)
            expanded = scenario.expand()
            self.first_of_entry.append(expanded[0])
            for trial in expanded:
                self.trials.append((number, scenario.kind, codec, trial))
        self.events = len(self.trials)
        # The seed only shuffles execution order; payloads do not depend on it.
        self.order = [
            int(i) for i in np.random.default_rng(seed).permutation(self.events)
        ]

    def _overrides(self, entry: dict) -> dict:
        overrides = dict(entry.get("overrides", {}))
        if "arrivals" in overrides:
            overrides["arrivals"] = _scaled(overrides["arrivals"], self.scale, 6)
        if "params" in overrides:
            overrides["params"] = tuple(sorted(overrides["params"].items()))
        if "variants" in overrides:
            overrides["variants"] = tuple(
                Variant(
                    variant["name"],
                    variant.get("placer", ""),
                    HaPolicy(required_wcs=variant["required_wcs"])
                    if "required_wcs" in variant
                    else None,
                )
                for variant in overrides["variants"]
            )
        smoke = self.scale < 1.0  # the tier-1 smoke keeps one point per axis
        if "seeds" in overrides:
            overrides["seeds"] = tuple(
                self.trace_seed + offset
                for offset in range(1 if smoke else overrides["seeds"])
            )
        if smoke:
            for axis in ("loads", "bmaxes", "xs"):
                if axis in overrides:
                    overrides[axis] = overrides[axis][:1]
        return overrides

    def warm_up(self) -> None:
        # Fills the engine's pool/topology caches, one trial per entry.
        for trial in self.first_of_entry:
            execute_trial(trial)

    def fresh(self, numbered: bool = False):
        return {"stamps": [], "encode": [], "digests": [None] * self.events}

    def run(self, state) -> None:
        stamps = state["stamps"]
        encode = state["encode"]
        digests = state["digests"]
        trials = self.trials
        for position in self.order:
            _entry, _kind, codec, trial = trials[position]
            start = perf_counter()
            result = execute_trial(trial)
            middle = perf_counter()
            text = codec.encode(result.payload)
            end = perf_counter()
            stamps += (start, end)
            encode.append(end - middle)
            digests[position] = hashlib.sha256(text.encode()).hexdigest()

    def finish(self, state) -> Repetition:
        digests = state["digests"]
        return Repetition(
            stamps=state["stamps"],
            outcomes=bytes([1]) * self.events,
            digest=hashlib.sha256("".join(digests).encode()).hexdigest(),
            fingerprint=None,
            ordinals=list(self.order),
            extra={
                "encode_s": state["encode"],
                "kinds": [self.trials[position][1] for position in self.order],
            },
            state=state,
        )


WORKLOADS = {
    workload.name: workload
    for workload in (SvcOverload, BingChurn, TemporalChurn, PaperGrid)
}


def build(name: str, seed: int, scale: float = 1.0, held_out: bool = False):
    """``held_out`` picks the replay workloads' held-out trace; the caller
    passes the held-out *seed* itself (``run.py`` does)."""
    params = load_spec()["workloads"][name]["params"]
    return WORKLOADS[name](params, seed, scale, held_out)
