"""Guarantee-enforcement prototype: max-min flows + ElasticSwitch model."""

from repro._lazy import lazy_exports

__all__ = [
    "ElasticSwitchDynamics",
    "EnforcementProblem",
    "EnforcementResult",
    "Fig13Point",
    "Fig4Outcome",
    "FlowSpec",
    "MaxMinProblem",
    "PairFlow",
    "PeriodSample",
    "build_enforcement_problem",
    "enforce",
    "fig4_scenario",
    "fig13_scenario",
    "maxmin_rates",
    "solve_enforcement",
    "solve_maxmin",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.enforcement.dynamics": (
        "ElasticSwitchDynamics", "PeriodSample",
    ),
    "repro.enforcement.elasticswitch": (
        "EnforcementProblem", "EnforcementResult", "PairFlow",
        "build_enforcement_problem", "enforce", "solve_enforcement",
    ),
    "repro.enforcement.maxmin": (
        "FlowSpec", "MaxMinProblem", "maxmin_rates", "solve_maxmin",
    ),
    "repro.enforcement.scenarios": (
        "Fig13Point", "Fig4Outcome", "fig4_scenario", "fig13_scenario",
    ),
})
