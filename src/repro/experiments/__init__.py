"""One driver module per paper table/figure, all running on the engine.

Importing this package registers every experiment's declarative
:class:`~repro.engine.scenario.Scenario` with
:mod:`repro.engine.registry` (that is what ``registry.load_all`` relies
on); ``repro run <name>`` is the one way to launch them from a shell.
"""

from repro.experiments import (  # noqa: F401  (import-time registration)
    fig01_survey,
    fig04_hose_failure,
    fig07_bmax_sweep,
    fig08_load_sweep,
    fig09_oversub_sweep,
    fig10_ablation,
    fig11_wcs_guarantee,
    fig12_opportunistic_ha,
    fig13_enforcement,
    failure_sweep,
    inference_ami,
    runtime_scaling,
    service_loop,
    table1_reserved_bw,
    temporal_savings,
)
