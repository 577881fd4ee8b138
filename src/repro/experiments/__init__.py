"""Experiment drivers regenerating every table and figure of the paper.

Each ``figN_*``/``tableN_*`` module exposes a ``run(config) -> result``
function and a ``render(result) -> str`` text renderer producing the
same rows/series the paper reports.  The per-experiment index lives in
DESIGN.md §4; measured-vs-paper comparisons are recorded in
EXPERIMENTS.md.

Shared machinery:

* :mod:`repro.experiments.runner` -- the paper's median-of-3
  protocol;
* :mod:`repro.experiments.metrics` -- normalized performance, energy
  savings, violation accounting, exactly as the paper computes them;
* :mod:`repro.experiments.suite` -- SPEC-suite sweeps.
"""

from repro.exec.plan import ExperimentConfig
from repro.experiments.runner import median_run
from repro.experiments.metrics import (
    normalized_performance,
    performance_reduction,
    energy_savings,
    speedup,
)

__all__ = [
    "ExperimentConfig",
    "median_run",
    "normalized_performance",
    "performance_reduction",
    "energy_savings",
    "speedup",
]
