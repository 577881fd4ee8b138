"""Per-sample power-model accuracy across the SPEC suite.

One of the paper's stated differentiators: "Prior power model evaluations
focused on program-average power prediction accuracy ... We focus on
per-sample accuracy for tighter run-time control" (§II).  This
experiment quantifies exactly that on the reproduction: run every SPEC
benchmark at a fixed p-state, estimate power from each 10 ms DPC sample
with the trained model, and compare against the corresponding measured
power sample.

Outputs per workload: mean signed error (bias), mean absolute error,
and the 95th-percentile absolute error -- plus the suite aggregate.
galgel's large positive bias (true power above the estimate) is the
quantitative root of its PM violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from repro.analysis.report import TextTable
from repro.core.controller import PowerManagementController
from repro.core.governors.unconstrained import EventProbe
from repro.core.models.power import LinearPowerModel
from repro.exec import ExperimentConfig
from repro.exec.cache import trained_power_model
from repro.experiments.runner import no_cells
from repro.platform.events import Event
from repro.platform.machine import Machine
from repro.workloads.registry import default_registry


@dataclass(frozen=True)
class SampleErrorStats:
    """Per-sample estimation-error statistics for one workload."""

    workload: str
    samples: int
    bias_w: float          #: mean (measured - estimated)
    mae_w: float           #: mean |measured - estimated|
    p95_abs_w: float       #: 95th percentile |error|

    @property
    def underestimated(self) -> bool:
        """True when the model runs hot (measured above estimate)."""
        return self.bias_w > 0


@dataclass(frozen=True)
class ModelAccuracyResult:
    """Suite-wide per-sample accuracy at one p-state."""

    frequency_mhz: float
    per_workload: Mapping[str, SampleErrorStats]
    suite_mae_w: float
    suite_p95_w: float

    def worst_underestimated(self) -> SampleErrorStats:
        """The workload the model underestimates the most (bias)."""
        return max(self.per_workload.values(), key=lambda s: s.bias_w)


#: No cells: summarize runs its own controllers.
plan = no_cells


def summarize(
    config: ExperimentConfig,
    results,
    frequency_mhz: float = 2000.0,
    model: LinearPowerModel | None = None,
) -> ModelAccuracyResult:
    """Measure per-sample model error for every SPEC benchmark."""
    model = model or trained_power_model(seed=config.seed)

    per_workload: Dict[str, SampleErrorStats] = {}
    all_abs: list[float] = []
    for workload in default_registry().spec_suite():
        machine = Machine(config.machine_config())
        governor = EventProbe(
            machine.config.table, frequency_mhz, (Event.INST_DECODED,)
        )
        controller = PowerManagementController(
            machine, governor, keep_trace=True
        )
        result = controller.run(
            workload.scaled(config.scale),
            initial_pstate=machine.config.table.by_frequency(frequency_mhz),
        )
        errors = []
        for row in result.trace:
            dpc = row.rates.get(Event.INST_DECODED)
            if dpc is None:
                continue
            estimated = model.estimate(frequency_mhz, dpc)
            errors.append(row.measured_power_w - estimated)
        errors_arr = np.array(errors)
        abs_errors = np.abs(errors_arr)
        all_abs.extend(abs_errors.tolist())
        per_workload[workload.name] = SampleErrorStats(
            workload=workload.name,
            samples=len(errors),
            bias_w=float(errors_arr.mean()),
            mae_w=float(abs_errors.mean()),
            p95_abs_w=float(np.percentile(abs_errors, 95)),
        )
    all_arr = np.array(all_abs)
    return ModelAccuracyResult(
        frequency_mhz=frequency_mhz,
        per_workload=per_workload,
        suite_mae_w=float(all_arr.mean()),
        suite_p95_w=float(np.percentile(all_arr, 95)),
    )


def render(result: ModelAccuracyResult) -> str:
    """Per-workload error table, worst underestimation first."""
    table = TextTable(
        ["benchmark", "samples", "bias W", "MAE W", "p95 |err| W"]
    )
    ordered = sorted(
        result.per_workload.values(), key=lambda s: s.bias_w, reverse=True
    )
    for stats in ordered:
        table.add_row(
            stats.workload, stats.samples, stats.bias_w, stats.mae_w,
            stats.p95_abs_w,
        )
    worst = result.worst_underestimated()
    return (
        f"Per-sample power-model accuracy at {result.frequency_mhz:.0f} MHz\n"
        + table.render()
        + f"\nsuite MAE {result.suite_mae_w:.2f} W, "
        f"p95 {result.suite_p95_w:.2f} W; "
        f"worst underestimation: {worst.workload} "
        f"(+{worst.bias_w:.2f} W bias -- the PM-violation mechanism)"
    )
