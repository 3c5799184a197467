"""Unified scenario engine: declarative experiments, parallel trials.

``repro.engine`` turns every §5 experiment into data: a frozen
:class:`Scenario` describing the pool, placer variants, topologies and
load/B_max/seed grids, expanded by the :class:`Engine` into a flat trial
matrix and executed serially or across ``multiprocessing`` workers with
deterministic per-trial seeding.  The :mod:`~repro.engine.registry` maps
scenario names to their definitions and presenters so the CLI can list
and run any experiment in the repo::

    from repro.engine import Engine, registry

    entry = registry.get("fig08")
    result = Engine(n_jobs=4).run(entry.scenario.override(seeds=range(8)))
    entry.present(result)
"""

from repro._lazy import lazy_exports

__all__ = [
    "Engine",
    "KIND_AXES",
    "MAX_AUTO_JOBS",
    "POOL_NAMES",
    "RUNNERS",
    "RegisteredScenario",
    "Scenario",
    "ScenarioResult",
    "TopologyCase",
    "Trial",
    "TrialContext",
    "TrialResult",
    "Variant",
    "build_context",
    "default_jobs",
    "execute_trial",
    "get_pool",
    "kind_axes",
    "get_scaled_pool",
    "get_topology",
    "register_runner",
    "registry",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.engine.context": (
        "POOL_NAMES", "TrialContext", "build_context", "get_pool", "get_scaled_pool",
        "get_topology",
    ),
    "repro.engine.engine": ("MAX_AUTO_JOBS", "Engine", "default_jobs"),
    "repro.engine.registry": ("RegisteredScenario",),
    "repro.engine.runners": (
        "KIND_AXES", "RUNNERS", "execute_trial", "kind_axes", "register_runner",
    ),
    "repro.engine.scenario": (
        "Scenario", "ScenarioResult", "TopologyCase", "Trial", "TrialResult", "Variant",
    ),
})
