"""The paper's measurement protocol: median-of-N selection.

The paper's protocol: "To account for the variability in workload
execution times, we employ the standard SPEC approach of executing three
times and reporting data from the run with the median execution time"
(§IV).  :func:`median_run` implements that; single-run mode (``runs=1``)
is the fast default for benchmarks since the simulator's variance is
small and seeded.

Everything else this module used to host now lives in :mod:`repro.exec`:
runs are described declaratively (:class:`~repro.exec.RunCell` +
:class:`~repro.exec.GovernorSpec`), configured by
:class:`~repro.exec.ExperimentConfig`, and executed through
:func:`~repro.exec.execute_cell` or :func:`~repro.exec.open_session`.
"""

from __future__ import annotations

from repro.core.controller import RunResult
from repro.core.limits import ConstraintSchedule
from repro.errors import ExperimentError
from repro.exec.core import execute_cell
from repro.exec.plan import (
    ExperimentConfig as _ExperimentConfig,
    RunCell as _RunCell,
    as_governor_spec as _as_governor_spec,
)
from repro.exec.session import execute_cells
from repro.telemetry.recorder import TelemetryRecorder
from repro.workloads.base import Workload
from repro.workloads.registry import default_registry

__all__ = [
    "median_run",
    "pick_median",
    "spec_suite",
]


def median_run(
    workload: Workload,
    governor_factory,
    config: _ExperimentConfig,
    schedule: ConstraintSchedule | None = None,
    telemetry: TelemetryRecorder | None = None,
) -> RunResult:
    """The paper's protocol: ``config.runs`` repetitions, median by time.

    Repetitions are independent cells (seed offsets 100*i), so under a
    parallel :func:`repro.exec.open_session` they fan out over workers;
    the median pick happens on the collected results either way.
    """
    if config.runs < 1:
        raise ExperimentError("need at least one run")
    spec = _as_governor_spec(governor_factory)
    cells = [
        _RunCell(
            workload=workload,
            governor=spec,
            seed_offset=100 * i,
            schedule=schedule,
            group=workload.name,
            rep=i,
        )
        for i in range(config.runs)
    ]
    if telemetry is not None:
        # An explicit recorder bypasses the session seam (a session's
        # own recorder flows through execute_cells unchanged).
        results = [
            execute_cell(cell, config, telemetry=telemetry)
            for cell in cells
        ]
    else:
        results = execute_cells(cells, config)
    return pick_median(results)


def pick_median(results: list[RunResult]) -> RunResult:
    """The median-duration result (paper §IV's selection rule)."""
    ordered = sorted(results, key=lambda r: r.duration_s)
    return ordered[len(ordered) // 2]


def spec_suite(config: _ExperimentConfig) -> tuple[Workload, ...]:
    """The SPEC CPU2000 suite (unscaled; runs apply ``config.scale``)."""
    return default_registry().spec_suite()

