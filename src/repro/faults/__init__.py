"""Fault injection: deterministic failure drills for the whole loop.

The paper's methodology ran on real hardware where counters glitch, the
sense-resistor/DAQ rig drops samples and SpeedStep transitions
occasionally fail -- failure modes the reproduction's happy path never
exercised.  This subsystem makes those failures a first-class, *seeded*
input so the hardened monitor -> estimate -> control loop can be tested
(and demonstrated) under fire:

* :mod:`repro.faults.plan` -- declarative :class:`FaultPlan` with
  per-subsystem fault models (dropped/duplicated/garbled/overflowed
  counter samples, meter dropout and spikes, failed/stalled p-state
  transitions, stuck thermal sensors), JSON (or YAML) loadable for the
  CLI's ``--faults SPEC`` and carried into a run by its cell
  (``RunCell(fault_plan=...)``);
* :mod:`repro.faults.injector` -- the seeded :class:`FaultInjector` and
  its interface-preserving wrappers around the counter sampler, power
  meter and SpeedStep driver.

``repro-power telemetry-report`` reconciles the injected faults against
the recoveries in its faults section.

The consumer-side defenses live with the consumers: see
:class:`repro.core.resilience.ResilienceConfig` and the hardened
:class:`~repro.core.controller.PowerManagementController`.
"""

from repro.faults.injector import (
    FaultInjector,
    FaultyPowerMeter,
    FaultySampler,
    FaultySpeedStep,
)
from repro.faults.plan import (
    FaultPlan,
    MeterFaults,
    SampleFaults,
    ThermalFaults,
    TransitionFaults,
    load_fault_plan,
)

__all__ = [
    "FaultPlan",
    "SampleFaults",
    "MeterFaults",
    "TransitionFaults",
    "ThermalFaults",
    "load_fault_plan",
    "FaultInjector",
    "FaultySampler",
    "FaultyPowerMeter",
    "FaultySpeedStep",
]
