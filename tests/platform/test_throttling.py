"""Tests for ACPI T-state clock modulation and the throttling governor."""

import pytest

from repro.core.controller import PowerManagementController
from repro.core.governors.throttling_pm import ThrottlingMaximizer
from repro.core.governors.performance_maximizer import PerformanceMaximizer
from repro.core.models.power import LinearPowerModel
from repro.drivers.msr import MSRFile
from repro.errors import TransitionError
from repro.platform.machine import Machine, MachineConfig
from repro.platform.throttling import (
    IA32_CLOCK_MODULATION,
    T_STATE_DUTIES,
    ThrottleController,
    decode_duty,
    encode_duty,
)

from .make_golden_ticks import probe_run

MODEL = LinearPowerModel.paper_model()


class TestEncoding:
    def test_roundtrip_all_levels(self):
        for duty in (*T_STATE_DUTIES, 1.0):
            assert decode_duty(encode_duty(duty)) == duty

    def test_full_speed_clears_enable_bit(self):
        assert encode_duty(1.0) == 0

    def test_unsupported_duty_rejected(self):
        with pytest.raises(TransitionError):
            encode_duty(0.33)

    def test_reserved_level_rejected(self):
        with pytest.raises(TransitionError):
            decode_duty(1 << 4)  # enabled with level 0


class TestController:
    def test_msr_programming_path(self):
        msr = MSRFile()
        throttle = ThrottleController(msr)
        assert throttle.duty == 1.0
        throttle.set_duty(0.5)
        assert throttle.duty == 0.5
        # Raw MSR writes drive it too, like real software would.
        msr.wrmsr(IA32_CLOCK_MODULATION, encode_duty(0.25))
        assert throttle.duty == 0.25
        throttle.reset()
        assert throttle.duty == 1.0

    def test_nearest_duty_rounds_up(self):
        assert ThrottleController.nearest_duty(0.3) == 0.375
        assert ThrottleController.nearest_duty(0.875) == 0.875
        assert ThrottleController.nearest_duty(0.9) == 1.0


class TestMachineThrottling:
    #: Half duty from the second tick on (a run starts unthrottled).
    HALF = {1: ("duty", 0.5)}

    def test_duty_scales_throughput(self, tiny_core_workload):
        workload = tiny_core_workload.scaled(4.0)
        full = probe_run(Machine(MachineConfig(seed=1)), workload)
        half = probe_run(
            Machine(MachineConfig(seed=1)), workload, script=self.HALF
        )
        assert half.trace[1].instructions == pytest.approx(
            0.5 * full.trace[1].instructions, rel=1e-9
        )
        # One full-speed tick, then the rest at half speed.
        tick = full.trace[0].time_s
        assert half.duration_s == pytest.approx(
            tick + 2 * (full.duration_s - tick), rel=0.02
        )

    def test_duty_scales_dynamic_power_only(self, tiny_core_workload):
        workload = tiny_core_workload.scaled(4.0)
        full = Machine(MachineConfig(seed=1))
        record_full = probe_run(full, workload, until_s=0.02).trace[1]

        half = Machine(MachineConfig(seed=1))
        record_half = probe_run(
            half, workload, script=self.HALF, until_s=0.02
        ).trace[1]
        leakage = half.config.power.leakage.power(
            half.current_pstate.voltage
        )
        expected = (record_full.true_power_w - leakage) * 0.5 + leakage
        assert record_half.true_power_w == pytest.approx(expected, rel=0.02)
        assert record_half.duty == 0.5


class TestThrottlingMaximizer:
    def run_governor(self, factory, workload, seed=0):
        machine = Machine(MachineConfig(seed=seed))
        governor = factory(machine)
        controller = PowerManagementController(machine, governor)
        return machine, controller.run(workload)

    def test_respects_power_limit(self, tiny_core_workload):
        workload = tiny_core_workload.scaled(12.0)
        machine, result = self.run_governor(
            lambda m: ThrottlingMaximizer(
                m.config.table, MODEL, m.throttle, 12.5
            ),
            workload,
        )
        assert result.violation_fraction(12.5) == 0.0
        assert machine.throttle.duty < 1.0  # it actually throttled

    def test_generous_limit_runs_unthrottled(self, tiny_memory_workload):
        machine, result = self.run_governor(
            lambda m: ThrottlingMaximizer(
                m.config.table, MODEL, m.throttle, 25.0
            ),
            tiny_memory_workload,
        )
        assert machine.throttle.duty == 1.0

    def test_dvfs_strictly_beats_throttling(self, tiny_core_workload):
        """Same limit, same work: DVFS finishes sooner AND cheaper --
        the classic result the ablation bench quantifies."""
        workload = tiny_core_workload.scaled(12.0)
        _, throttled = self.run_governor(
            lambda m: ThrottlingMaximizer(
                m.config.table, MODEL, m.throttle, 12.5
            ),
            workload,
        )
        _, dvfs = self.run_governor(
            lambda m: PerformanceMaximizer(m.config.table, MODEL, 12.5),
            workload,
        )
        assert dvfs.duration_s < throttled.duration_s
        assert dvfs.measured_energy_j < throttled.measured_energy_j
