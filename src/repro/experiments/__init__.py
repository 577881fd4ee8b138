"""Experiment drivers regenerating every table and figure of the paper.

Each report section (``figN_*``/``tableN_*``, ``model_accuracy``,
``characterization``, ``hierarchy_probe``, ``corpus_characterization``)
is a ``plan(config) -> RunPlan`` listing its cells, a
``summarize(config, results) -> result`` building the paper's
rows/series from their results, and a ``render(result) -> str``;
:func:`run_section` runs one.  The drills (``chaos_resume``,
``campaign_drill``, ``fleet_capping``, ``multicore_scaling``,
``adaptation_drift``) are procedures, not sets of cells, and expose
``run(config) -> result`` instead.  The per-experiment index lives in
DESIGN.md §4; measured-vs-paper comparisons are recorded in
EXPERIMENTS.md.

Shared machinery:

* :mod:`repro.experiments.runner` -- :func:`run_section` and
  ``execute_plans``, which runs many sections' cells once each;
* :mod:`repro.experiments.suite` -- SPEC-suite plan builders and the
  paper's median-of-``runs`` pick;
* :mod:`repro.experiments.metrics` -- normalized performance, energy
  savings, violation accounting, exactly as the paper computes them.
"""

from repro.exec.plan import ExperimentConfig
from repro.experiments.runner import run_section
from repro.experiments.metrics import (
    normalized_performance,
    performance_reduction,
    energy_savings,
    speedup,
)

__all__ = [
    "ExperimentConfig",
    "run_section",
    "normalized_performance",
    "performance_reduction",
    "energy_savings",
    "speedup",
]
