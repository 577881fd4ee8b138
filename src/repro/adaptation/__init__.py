"""Online model adaptation: the measurement -> estimation feedback loop.

The paper trains its power model (``P = alpha * DPC + beta``, Table II)
and two-class performance model once, offline, and freezes the
coefficients; sensor drift, thermal shift or an unmodeled workload then
silently degrades every governor decision.  This subsystem closes the
loop so the models adapt *in place*:

* :mod:`repro.adaptation.rls` -- per-p-state recursive least squares
  with a forgetting factor, refining ``(alpha, beta)`` from each 10 ms
  ``(DPC, measured power)`` sample without storing history;
* :mod:`repro.adaptation.drift` -- residual tracking and drift
  confirmation (a two-sided Page-Hinkley test over power-model
  residuals, plus a performance-model misclassification monitor on the
  DCU/IPC threshold), distinguishing transient noise from genuine
  model drift;
* :mod:`repro.adaptation.registry` -- the versioned
  :class:`ModelRegistry`: provenance-stamped model snapshots
  (persistence format v2) with activate/rollback and disk persistence;
* :mod:`repro.adaptation.manager` -- the :class:`AdaptationManager`
  the :class:`~repro.core.controller.PowerManagementController` drives
  every tick: shadow-scores the active model, triggers recalibration
  when drift is confirmed, hot-swaps the governor's model between
  control decisions, widens the PM guardband with the observed residual
  spread, and rolls back a recalibration that fails probation.

``repro-power telemetry-report`` digests the model lifecycle events in
its adaptation section.

Meter-drift fault plans (:class:`repro.faults.MeterFaults` with
``drift_rate_per_s``) are the drill for the detector: the
``drift`` experiment compares a frozen-model governor against an
adapting one under injected sensor drift.
"""

from repro.adaptation.drift import (
    MisclassificationMonitor,
    PageHinkleyDetector,
    ResidualTracker,
)
from repro.adaptation.manager import AdaptationConfig, AdaptationManager
from repro.adaptation.registry import ModelRegistry, ModelVersion
from repro.adaptation.rls import PowerModelRLS

__all__ = [
    "AdaptationConfig",
    "AdaptationManager",
    "PowerModelRLS",
    "PageHinkleyDetector",
    "ResidualTracker",
    "MisclassificationMonitor",
    "ModelRegistry",
    "ModelVersion",
]
