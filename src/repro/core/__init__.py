"""The paper's contribution: application-aware power management.

Three-phase methodology (paper §III, Fig. 3):

* **Monitor** -- :mod:`repro.core.sampling` reads the two PMU counters
  every 10 ms through the driver layer.
* **Estimate/Predict** -- :mod:`repro.core.models` projects power and
  performance at *every* p-state from the current sample (this
  cross-p-state prediction is the paper's key modelling novelty).
* **Control** -- :mod:`repro.core.governors` pick the p-state meeting the
  user's constraint: PerformanceMaximizer (power limit) and PowerSave
  (performance floor), plus the baselines they are evaluated against.

:mod:`repro.core.controller` wires the three phases into the run loop.
"""

from repro.core.sampling import CounterSample, CounterSampler
from repro.core.models import (
    LinearPowerModel,
    PerformanceModel,
    PAPER_TABLE_II,
    project_dpc,
)
from repro.core.governors import (
    Governor,
    PerformanceMaximizer,
    PowerSave,
    StaticClocking,
    FixedFrequency,
    DemandBasedSwitching,
    AdaptivePerformanceMaximizer,
    ComponentPerformanceMaximizer,
    EnergyDelayOptimizer,
    ThermalGuard,
    ThrottlingMaximizer,
    ConfigProjection,
    EnergyOptimalSearch,
)
from repro.core.controller import PowerManagementController, RunResult, TraceRow
from repro.core.resilience import PowerReadingFilter, ResilienceConfig

__all__ = [
    "CounterSample",
    "CounterSampler",
    "LinearPowerModel",
    "PerformanceModel",
    "PAPER_TABLE_II",
    "project_dpc",
    "Governor",
    "PerformanceMaximizer",
    "PowerSave",
    "StaticClocking",
    "FixedFrequency",
    "DemandBasedSwitching",
    "AdaptivePerformanceMaximizer",
    "ComponentPerformanceMaximizer",
    "EnergyDelayOptimizer",
    "ThermalGuard",
    "ThrottlingMaximizer",
    "ConfigProjection",
    "EnergyOptimalSearch",
    "PowerManagementController",
    "RunResult",
    "TraceRow",
    "ResilienceConfig",
    "PowerReadingFilter",
]
