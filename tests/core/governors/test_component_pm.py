"""Tests for ComponentPerformanceMaximizer and the multiplexed sampler."""

import pytest

from repro.core.controller import PowerManagementController
from repro.core.governors.component_pm import ComponentPerformanceMaximizer
from repro.core.models.component_power import (
    ComponentCoefficients,
    ComponentPowerModel,
)
from repro.core.sampling import CounterSample, MultiplexedCounterSampler
from repro.drivers.msr import MSRFile
from repro.drivers.pmu import PMU
from repro.errors import GovernorError, PMUError
from repro.platform.events import Event
from repro.platform.machine import Machine, MachineConfig

from tests.drivers.counts import advance


def toy_model():
    """A hand-built component model with known weights at every p-state."""
    coefficients = {}
    for freq in (600.0, 800.0, 1000.0, 1200.0, 1400.0, 1600.0, 1800.0, 2000.0):
        scale = freq / 2000.0
        coefficients[freq] = ComponentCoefficients(
            weights={
                Event.INST_DECODED: 2.0 * scale,
                Event.FP_COMP_OPS_EXE: 1.0 * scale,
                Event.L2_RQSTS: 5.0 * scale,
            },
            intercept=12.0 * scale,
        )
    return ComponentPowerModel(coefficients)


def sample(rates, interval_s=0.01, cycles=2e7):
    return CounterSample(interval_s=interval_s, cycles=cycles, rates=rates)


class TestMultiplexedSampler:
    def test_rotation_produces_alternating_rate_sets(self):
        pmu = PMU(MSRFile())
        sampler = MultiplexedCounterSampler(
            pmu, ComponentPerformanceMaximizer.EVENT_GROUPS
        )
        sampler.start()
        counts = {Event.INST_DECODED: 1_200_000,
                  Event.FP_COMP_OPS_EXE: 600_000, Event.L2_RQSTS: 30_000}
        advance(pmu, 1_000_000, counts)
        first = sampler.sample(0.01)
        advance(pmu, 1_000_000, counts)
        second = sampler.sample(0.01)
        assert Event.FP_COMP_OPS_EXE in first.rates
        assert Event.L2_RQSTS in second.rates
        assert first.rates[Event.FP_COMP_OPS_EXE] == pytest.approx(0.6, rel=1e-3)
        assert second.rates[Event.L2_RQSTS] == pytest.approx(0.03, rel=1e-3)

    def test_empty_groups_rejected(self):
        with pytest.raises(PMUError):
            MultiplexedCounterSampler(PMU(MSRFile()), [])


class TestGovernor:
    def test_accumulates_rates_across_groups(self, table):
        model = toy_model()
        pm = ComponentPerformanceMaximizer(table, model, 17.5)
        current = table.fastest
        pm.decide(
            sample({Event.INST_DECODED: 1.0, Event.FP_COMP_OPS_EXE: 0.8}),
            current,
        )
        pm.decide(
            sample({Event.INST_DECODED: 1.0, Event.L2_RQSTS: 0.1}), current
        )
        estimate = pm.estimate_power(current, current)
        assert estimate == pytest.approx(12.0 + 2.0 + 0.8 + 0.5)

    def test_fp_activity_forces_lower_state(self, table):
        model = toy_model()
        pm = ComponentPerformanceMaximizer(table, model, 15.0)
        current = table.fastest
        calm = pm.decide(
            sample({Event.INST_DECODED: 1.0, Event.FP_COMP_OPS_EXE: 0.0}),
            current,
        )
        assert calm is current  # 14.0 + gb fits 15.0
        hot = pm.decide(
            sample({Event.INST_DECODED: 1.0, Event.FP_COMP_OPS_EXE: 2.0}),
            current,
        )
        assert hot.frequency_mhz < 2000.0  # the FP term pushed it over

    def test_event_groups_exposed(self, table):
        pm = ComponentPerformanceMaximizer(table, toy_model(), 15.0)
        assert len(pm.event_groups) == 2
        assert all(len(g) <= 2 for g in pm.event_groups)

    def test_validation(self, table):
        with pytest.raises(GovernorError):
            ComponentPerformanceMaximizer(table, toy_model(), 0.0)
        pm = ComponentPerformanceMaximizer(table, toy_model(), 15.0)
        with pytest.raises(GovernorError):
            pm.set_power_limit(-1.0)


class TestEndToEnd:
    def test_component_pm_eliminates_galgel_violations(self):
        """The refinement the paper anticipates: seeing FP/L2 activity
        fixes the workload the DPC model cannot contain."""
        from repro.core.models.component_power import (
            collect_component_training_data,
            fit_component_model,
        )
        from repro.workloads.registry import get_workload

        model = fit_component_model(
            collect_component_training_data(duration_s=0.12)
        )
        machine = Machine(MachineConfig(seed=0))
        governor = ComponentPerformanceMaximizer(
            machine.config.table, model, 13.5
        )
        controller = PowerManagementController(machine, governor)
        result = controller.run(get_workload("galgel").scaled(0.6))
        assert result.violation_fraction(13.5) <= 0.01
