"""Tests for the package thermal model and its machine integration."""

import pytest

from repro.core.controller import PowerManagementController
from repro.core.governors.unconstrained import FixedFrequency
from repro.errors import ModelError
from repro.platform.leakage import LeakageModel
from repro.platform.machine import Machine, MachineConfig
from repro.platform.power import PowerModelConstants
from repro.platform.thermal import PENTIUM_M_755_THERMAL, ThermalModel

from .make_golden_ticks import probe_run


class TestThermalModel:
    def test_starts_at_ambient(self):
        model = ThermalModel(t_ambient_c=40.0)
        assert model.temperature_c == 40.0

    def test_steady_state(self):
        model = ThermalModel(r_th_c_per_w=2.0, t_ambient_c=40.0)
        assert model.steady_state_c(20.0) == pytest.approx(80.0)

    def test_converges_to_steady_state(self):
        model = ThermalModel(r_th_c_per_w=2.0, c_th_j_per_c=1.0,
                             t_ambient_c=40.0)
        for _ in range(100):
            model.advance(20.0, 0.5)
        assert model.temperature_c == pytest.approx(80.0, abs=0.1)

    def test_exponential_step_is_stable_for_huge_dt(self):
        model = ThermalModel(t_ambient_c=40.0)
        model.advance(15.0, 1e6)
        assert model.temperature_c == pytest.approx(
            model.steady_state_c(15.0)
        )

    def test_cooling_when_power_drops(self):
        model = ThermalModel(t_ambient_c=40.0)
        model.advance(20.0, 30.0)
        hot = model.temperature_c
        model.advance(2.0, 5.0)
        assert model.temperature_c < hot

    def test_headroom(self):
        model = ThermalModel(t_ambient_c=40.0, t_junction_max_c=100.0)
        assert model.headroom_c == pytest.approx(60.0)

    def test_reset(self):
        model = ThermalModel(t_ambient_c=40.0)
        model.advance(20.0, 10.0)
        model.reset()
        assert model.temperature_c == 40.0
        model.reset(77.0)
        assert model.temperature_c == 77.0

    def test_validation(self):
        with pytest.raises(ModelError):
            ThermalModel(r_th_c_per_w=0.0)
        with pytest.raises(ModelError):
            ThermalModel(t_ambient_c=50.0, t_junction_max_c=40.0)
        with pytest.raises(ModelError):
            ThermalModel().advance(-1.0, 1.0)
        with pytest.raises(ModelError):
            ThermalModel().advance(1.0, -1.0)

    def test_default_package_reaches_tdp_within_limit(self):
        # 21 W sustained must land hot but inside the 100 C junction cap.
        model = PENTIUM_M_755_THERMAL
        steady = model.steady_state_c(21.0)
        assert model.t_ambient_c < steady <= model.t_junction_max_c


class TestMachineIntegration:
    @staticmethod
    def hot_machine(seed=0):
        constants = PowerModelConstants(
            leakage=LeakageModel(0.81, theta_per_kelvin=0.012,
                                 t_ref_celsius=60.0)
        )
        thermal = ThermalModel(
            r_th_c_per_w=2.6, c_th_j_per_c=0.6, t_ambient_c=60.0,
            t_junction_max_c=95.0,
        )
        return Machine(
            MachineConfig(seed=seed, power=constants, thermal=thermal)
        )

    def test_isothermal_by_default(self, machine, tiny_core_workload):
        result = probe_run(machine, tiny_core_workload, until_s=0.01)
        assert result.trace[0].temperature_c is None

    def test_temperature_rises_under_load(self, tiny_core_workload):
        trace = probe_run(
            self.hot_machine(), tiny_core_workload.scaled(40.0)
        ).trace
        assert trace[-1].temperature_c > trace[0].temperature_c
        assert trace[0].temperature_c > 60.0

    def test_leakage_feedback_raises_power_when_hot(self, tiny_core_workload):
        trace = probe_run(
            self.hot_machine(), tiny_core_workload.scaled(60.0)
        ).trace
        # Same activity, hotter die, more leakage: later ticks burn more.
        assert trace[-2].true_power_w > trace[1].true_power_w + 0.1

    def test_machines_do_not_share_thermal_state(self, tiny_core_workload):
        config = MachineConfig(seed=0, thermal=ThermalModel())
        a = Machine(config)
        b = Machine(config)
        probe_run(a, tiny_core_workload)
        assert a.thermal.temperature_c > a.thermal.t_ambient_c
        assert b.thermal.temperature_c == b.thermal.t_ambient_c

    def test_thermal_guard_caps_temperature(self, tiny_core_workload):
        from repro.core.governors.thermal_guard import ThermalGuard

        workload = tiny_core_workload.scaled(160.0)
        unguarded = self.hot_machine()
        controller = PowerManagementController(
            unguarded, FixedFrequency(unguarded.config.table, 2000.0)
        )
        free_run = controller.run(workload)
        free_max = max(r.temperature_c for r in free_run.trace)
        assert free_max > 95.0  # the scenario genuinely overheats

        guarded = self.hot_machine()
        guard = ThermalGuard(
            FixedFrequency(guarded.config.table, 2000.0),
            lambda: guarded.thermal.temperature_c,
            t_limit_c=95.0,
        )
        guard_run = PowerManagementController(guarded, guard).run(workload)
        guard_max = max(r.temperature_c for r in guard_run.trace)
        assert guard_max <= 95.5
        # The guard costs performance, as physics demands.
        assert guard_run.duration_s > free_run.duration_s
