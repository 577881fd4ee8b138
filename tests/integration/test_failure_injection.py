"""Failure-injection tests: noisy instrumentation, counter wrap mid-run,
hostile constraints -- the system must stay safe, not just accurate."""

import numpy as np
import pytest

from repro.core.controller import PowerManagementController
from repro.core.governors.performance_maximizer import PerformanceMaximizer
from repro.core.governors.powersave import PowerSave
from repro.core.models.performance import PerformanceModel
from repro.core.models.power import LinearPowerModel
from repro.core.governors.unconstrained import EventProbe
from repro.drivers.msr import IA32_PMC0, IA32_PMC1
from repro.measurement.adc import ADCModel
from repro.measurement.power_meter import PowerMeter
from repro.measurement.sense import SenseResistorChannel
from repro.platform.events import COUNTER_WIDTH_BITS, Event
from repro.platform.machine import Machine, MachineConfig

MODEL = LinearPowerModel.paper_model()


def test_pm_stays_safe_with_very_noisy_meter(tiny_core_workload):
    """PM control is counter-driven, so even a terrible power meter
    cannot destabilize it -- only the *reported* measurements suffer."""
    machine = Machine(MachineConfig(seed=0))
    noisy = PowerMeter(
        sense=SenseResistorChannel(
            tolerance=0.05, amplifier_noise_v=1e-4,
            rng=np.random.default_rng(1),
        ),
        adc=ADCModel(noise_floor_watts=1.0, rng=np.random.default_rng(2)),
        rng=np.random.default_rng(3),
    )
    governor = PerformanceMaximizer(machine.config.table, MODEL, 12.5)
    controller = PowerManagementController(machine, governor, meter=noisy)
    result = controller.run(tiny_core_workload.scaled(12.0))
    # The true power trace (not the noisy measurement) must respect the
    # limit as well as the noiseless run does.
    true_watts = [s.true_watts for s in result.samples]
    over = sum(1 for w in true_watts if w > 12.5) / len(true_watts)
    assert over < 0.05


class _WrapProbe(EventProbe):
    """Decode + retire at 2 GHz; after the first tick it presets both
    counters 1.5 ticks' worth of counts below the 40-bit wrap (or not,
    with ``preset=False``), so the third interval wraps.  Records both
    counters at every decision."""

    def __init__(self, machine, preset=True):
        super().__init__(
            machine.config.table, 2000.0,
            (Event.INST_DECODED, Event.INST_RETIRED),
        )
        self._msr = machine.msr
        self._preset = preset
        self.readings = []

    def decide(self, sample, current):
        msr = self._msr
        if self._preset and not self.readings:
            for address in (IA32_PMC0, IA32_PMC1):
                counts = msr.rdmsr(address)
                msr.poke(address, (1 << COUNTER_WIDTH_BITS) - 3 * counts // 2)
        self.readings.append((msr.rdmsr(IA32_PMC0), msr.rdmsr(IA32_PMC1)))
        return self._pstate


def test_counter_wrap_mid_run_does_not_corrupt_sampling():
    """A 40-bit counter wrap inside a monitoring interval must produce a
    correct delta, not a nonsense rate."""
    from repro.workloads.base import Phase, Workload

    workload = Workload(
        "wrap", (Phase(name="p", instructions=1e8, activity_jitter=0.0),), 1e8
    )
    runs = []
    for preset in (True, False):
        machine = Machine(MachineConfig(seed=0))
        probe = _WrapProbe(machine, preset)
        result = PowerManagementController(machine, probe).run(
            workload, until_s=0.03
        )
        runs.append((probe, result))
    (wrapped, result), (_, clean) = runs
    # Both counters wrapped inside the third interval...
    before, after = wrapped.readings[1], wrapped.readings[2]
    assert after[0] < before[0] and after[1] < before[1]
    # ...and its sample is exactly the unwrapped run's.
    sample = result.trace[2].rates
    assert sample == clean.trace[2].rates
    assert 0.0 < sample[Event.INST_RETIRED] <= 3.0
    assert 0.0 < sample[Event.INST_DECODED] <= 3.0


def test_adaptive_pm_survives_meter_dropout(tiny_core_workload):
    """Feeding zero measured power (a dead sense channel) must never
    crash the adaptive governor or make it *less* conservative."""
    from repro.core.governors.adaptive_pm import AdaptivePerformanceMaximizer

    machine = Machine(MachineConfig(seed=0))
    governor = AdaptivePerformanceMaximizer(machine.config.table, MODEL, 12.5)
    controller = PowerManagementController(machine, governor)
    # Simulate dropout by observing zero power between ticks.
    governor.observe_power(0.0)
    result = controller.run(tiny_core_workload)
    assert result.duration_s > 0


def test_ps_with_absurd_floor_runs_at_full_speed(tiny_memory_workload):
    machine = Machine(MachineConfig(seed=0))
    governor = PowerSave(
        machine.config.table, PerformanceModel.paper_primary(), 0.999
    )
    controller = PowerManagementController(machine, governor)
    result = controller.run(tiny_memory_workload)
    assert set(result.residency_s) == {2000.0}


def test_pm_with_impossible_limit_pins_slowest(tiny_core_workload):
    machine = Machine(MachineConfig(seed=0))
    governor = PerformanceMaximizer(machine.config.table, MODEL, 3.0)
    controller = PowerManagementController(machine, governor)
    result = controller.run(tiny_core_workload.scaled(6.0))
    # After the first decision everything runs at 600 MHz.
    assert result.residency_s.get(600.0, 0.0) > 0.9 * (
        result.duration_s - 0.011
    )


def test_rapid_limit_flapping_is_stable(tiny_core_workload):
    """A hostile schedule flipping the limit every 30 ms must not break
    accounting invariants."""
    from repro.core.limits import ConstraintSchedule

    schedule = ConstraintSchedule()
    for i in range(20):
        schedule.add_power_limit(0.03 * i, 17.5 if i % 2 else 10.5)
    machine = Machine(MachineConfig(seed=0))
    governor = PerformanceMaximizer(machine.config.table, MODEL, 17.5)
    controller = PowerManagementController(machine, governor)
    result = controller.run(tiny_core_workload.scaled(12.0), schedule=schedule)
    assert sum(result.residency_s.values()) == pytest.approx(
        result.duration_s
    )
    assert result.instructions == pytest.approx(
        tiny_core_workload.total_instructions * 12.0
    )
