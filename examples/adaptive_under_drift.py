#!/usr/bin/env python3
"""Scenario: the power meter drifts out of calibration mid-run.

The paper's models are calibrated offline against a bench supply
(§IV-B2) and then trusted forever.  Real sense-resistor rigs are not so
polite: temperature and ageing walk the gain away from the calibration
point.  Here the meter starts reading high at t=1 s (+4%/s, saturating
at +35%), while PM enforces a 13.5 W limit on the FMA-256KB worst-case
stream.

Two runs of the same workload under the same drifting meter:

* a *frozen* PM trusts the offline model and keeps picking frequencies
  whose **estimated** power sits just under the limit -- but the meter
  now reports those same frequencies well above it;
* an *adaptive* PM watches the residual between estimated and measured
  power.  A Page-Hinkley detector confirms the drift, a recursive
  least-squares refit recalibrates the per-p-state coefficients, and
  the recalibrated model is hot-swapped in (with rollback protection)
  -- so PM backs off and holds the limit as measured.

Everything is seeded: run it twice, get the same story twice.
"""

import dataclasses

from repro import AdaptationConfig
from repro.exec import (
    ExperimentConfig,
    GovernorSpec,
    RunCell,
    execute_cell,
    prepare_cell,
)
from repro.faults.plan import FaultPlan, MeterFaults

LIMIT_W = 13.5
DRIFT = MeterFaults(drift_rate_per_s=0.04, drift_start_s=1.0,
                    drift_max_gain=0.35)


def violations_by_window(result, width_s=2.0):
    """Fraction of samples above the limit per ``width_s`` window."""
    windows = {}
    for sample in result.samples:
        key = int(sample.time_s // width_s)
        total, bad = windows.get(key, (0, 0))
        windows[key] = (total + 1, bad + (sample.watts > LIMIT_W))
    return {k: bad / total for k, (total, bad) in sorted(windows.items())}


def main() -> None:
    config = ExperimentConfig(scale=64.0, seed=0)
    plan = FaultPlan(seed=config.seed, meter=DRIFT)

    print(f"meter gain drifts +{100 * DRIFT.drift_rate_per_s:.0f}%/s from "
          f"t={DRIFT.drift_start_s:.0f}s (cap +{100 * DRIFT.drift_max_gain:.0f}%); "
          f"PM limit {LIMIT_W} W\n")

    # The worst-case microbenchmark under the trained model's PM.
    cell = RunCell("FMA-256KB", GovernorSpec.pm(LIMIT_W), fault_plan=plan)
    frozen = execute_cell(cell, config)

    prepared = prepare_cell(
        dataclasses.replace(cell, adaptation=AdaptationConfig()), config
    )
    adaptive = prepared.execute()
    manager = prepared.adaptation

    print(f"{'window':>10} {'frozen viol%':>13} {'adaptive viol%':>15}")
    frozen_windows = violations_by_window(frozen)
    adaptive_windows = violations_by_window(adaptive)
    for key in sorted(frozen_windows):
        label = f"{2 * key}-{2 * key + 2}s"
        print(f"{label:>10} {100 * frozen_windows[key]:13.1f} "
              f"{100 * adaptive_windows.get(key, 0.0):15.1f}")

    summary = manager.summary()
    print(f"\nfrozen  : {frozen.violation_fraction(LIMIT_W):6.1%} of samples "
          f"above {LIMIT_W} W")
    print(f"adaptive: {adaptive.violation_fraction(LIMIT_W):6.1%} of samples "
          f"above {LIMIT_W} W")
    print(f"\nadaptation: {summary['drift_detections']} drift detections, "
          f"{summary['recalibrations']} recalibrations, "
          f"{summary['rollbacks']} rollbacks")

    print("\nmodel lineage (the registry keeps every refit auditable):")
    for version in manager.registry.versions:
        provenance = version.provenance
        source = provenance.get("source", "?")
        extra = ""
        if source == "rls_recalibration":
            refit = ", ".join(f"{float(f):.0f}"
                              for f in provenance.get("refit_mhz", []))
            extra = f" (refit {refit} MHz at t={version.created_at_s:.2f}s)"
        marker = " <- active" if version.version == (
            manager.registry.active_version) else ""
        print(f"  v{version.version}: {source}{extra}{marker}")


if __name__ == "__main__":
    main()
