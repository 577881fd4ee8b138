"""Drift drill: frozen-model PM vs online-adaptive PM under meter drift.

The paper's offline models assume the measurement rig stays calibrated
forever; §IV-A2's future-work sketch ("PM could adapt model
coefficients on the fly") is the escape hatch when it does not.  This
experiment injects a *persistent* meter fault -- the sense-resistor /
ADC gain slowly walking upward -- and runs the same workload under the
same power limit twice:

* **frozen**: plain PM with the offline model.  Its estimates stay
  anchored to the stale calibration, so the (drifted) measured power
  climbs through the limit and violations accumulate for the rest of
  the run.
* **adaptive**: PM plus the :class:`~repro.adaptation.manager.
  AdaptationManager`.  The Page-Hinkley detector confirms the residual
  drift, the RLS state recalibrates the per-p-state coefficients
  against the drifted readings, and the hot-swapped model makes PM back
  off to frequencies that hold the limit *as measured*.

The acceptance claim: the adaptive run's violation fraction is strictly
lower than the frozen run's, with at least one drift detection and one
recalibration on the record.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.adaptation.manager import AdaptationConfig
from repro.analysis.report import TextTable
from repro.core.controller import RunResult
from repro.exec import (
    ExecSession,
    ExperimentConfig,
    GovernorSpec,
    RunCell,
    current_session,
    prepare_cell,
)
from repro.faults.plan import FaultPlan, MeterFaults

#: Power limit both legs enforce (the paper's most violation-prone
#: limit, §IV-A2).
DEFAULT_POWER_LIMIT_W = 13.5

#: Default gain drift: +4%/s of meter gain starting at t=1 s, capped at
#: +35% -- slow enough to pass the resilience spike filter, large
#: enough that the frozen model's guardband cannot absorb it.
DEFAULT_DRIFT = MeterFaults(
    drift_rate_per_s=0.04, drift_start_s=1.0, drift_max_gain=0.35
)


@dataclass(frozen=True)
class LegOutcome:
    """One governor leg's headline numbers."""

    violation_fraction: float
    mean_power_w: float
    duration_s: float

    @classmethod
    def from_run(cls, result: RunResult, limit_w: float) -> "LegOutcome":
        return cls(
            violation_fraction=result.violation_fraction(limit_w),
            mean_power_w=result.mean_power_w,
            duration_s=result.duration_s,
        )


@dataclass(frozen=True)
class DriftResult:
    """Frozen vs adaptive PM under the same drifting meter."""

    power_limit_w: float
    drift_rate_per_s: float
    drift_start_s: float
    frozen: LegOutcome
    adaptive: LegOutcome
    #: :meth:`AdaptationManager.summary` of the adaptive leg.
    adaptation: Mapping[str, Any] = field(default_factory=dict)

    @property
    def adaptation_wins(self) -> bool:
        """True when adaptation strictly reduced violation time."""
        return (
            self.adaptive.violation_fraction < self.frozen.violation_fraction
        )


def run(
    config: ExperimentConfig | None = None,
    power_limit_w: float = DEFAULT_POWER_LIMIT_W,
    drift: MeterFaults = DEFAULT_DRIFT,
    adaptation: AdaptationConfig | None = None,
) -> DriftResult:
    """Run the drift drill (frozen leg, then adaptive leg)."""
    # FMA-256KB needs a large scale to outlast the drift onset: ~10 s
    # of simulated control loop (~1000 ticks) per leg.
    config = config or ExperimentConfig(scale=64.0)
    cell = RunCell(
        "FMA-256KB",
        GovernorSpec.pm(power_limit_w),
        fault_plan=FaultPlan(seed=config.seed, meter=drift),
    )
    # The frozen leg must stay frozen even when the current session
    # adapts (``experiment --adapt``): it runs on a session with the
    # current one's recorder and store but no stamp.
    outer = current_session() or ExecSession()
    frozen_leg = ExecSession(telemetry=outer.telemetry, store=outer.store)
    frozen_run = frozen_leg.run_cells([cell], config)[0]

    adaptive = prepare_cell(
        replace(cell, adaptation=(
            adaptation if adaptation is not None else AdaptationConfig()
        )),
        config,
        outer.telemetry,
    )
    adaptive_run = adaptive.execute()

    return DriftResult(
        power_limit_w=power_limit_w,
        drift_rate_per_s=drift.drift_rate_per_s,
        drift_start_s=drift.drift_start_s,
        frozen=LegOutcome.from_run(frozen_run, power_limit_w),
        adaptive=LegOutcome.from_run(adaptive_run, power_limit_w),
        adaptation=dict(adaptive.adaptation.summary()),
    )


def render(result: DriftResult) -> str:
    """Side-by-side frozen vs adaptive digest."""
    table = TextTable(["leg", "violation %", "mean W", "duration s"])
    for name, leg in (("frozen", result.frozen), ("adaptive", result.adaptive)):
        table.add_row(
            name,
            100 * leg.violation_fraction,
            leg.mean_power_w,
            leg.duration_s,
        )
    summary = result.adaptation
    verdict = (
        "adaptation held the limit"
        if result.adaptation_wins
        else "adaptation did NOT reduce violations"
    )
    return (
        f"Drift drill -- PM at {result.power_limit_w:.1f} W with meter "
        f"gain drifting +{100 * result.drift_rate_per_s:.1f}%/s from "
        f"t={result.drift_start_s:.1f}s\n"
        + table.render()
        + (
            f"\ndrift detections: {summary.get('drift_detections', 0)}"
            f"  recalibrations: {summary.get('recalibrations', 0)}"
            f"  rollbacks: {summary.get('rollbacks', 0)}"
            f"  registry versions: {summary.get('registered_versions', 0)}"
        )
        + f"\nverdict: {verdict}"
    )
