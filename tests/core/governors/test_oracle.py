"""Tests for the oracle (perfect-knowledge) PM baseline."""

import pytest

from repro.core.controller import PowerManagementController
from repro.core.governors.oracle import OraclePerformanceMaximizer
from repro.core.governors.performance_maximizer import PerformanceMaximizer
from repro.core.governors.unconstrained import EventProbe
from repro.core.models.power import LinearPowerModel
from repro.core.sampling import CounterSample
from repro.errors import GovernorError
from repro.platform.events import Event
from repro.platform.machine import Machine, MachineConfig

MODEL = LinearPowerModel.paper_model()


def dummy_sample():
    return CounterSample(
        interval_s=0.01, cycles=2e7, rates={Event.INST_RETIRED: 1.0}
    )


class TestDecision:
    def test_picks_highest_true_feasible_state(self, table):
        # Synthetic truth: power proportional to v2f, 5 W/unit.
        truth = lambda pstate: 5.0 * pstate.v2f
        governor = OraclePerformanceMaximizer(table, truth, 13.0)
        target = governor.decide(dummy_sample(), table.fastest)
        # 5*v2f <= 13 -> v2f <= 2.6 -> 1600 MHz (v2f 2.476).
        assert target.frequency_mhz == 1600.0

    def test_margin_shifts_choice(self, table):
        truth = lambda pstate: 5.0 * pstate.v2f
        tight = OraclePerformanceMaximizer(table, truth, 13.0, margin_w=1.0)
        assert tight.decide(
            dummy_sample(), table.fastest
        ).frequency_mhz < 1600.0

    def test_impossible_limit_degrades(self, table):
        governor = OraclePerformanceMaximizer(table, lambda p: 50.0, 10.0)
        assert governor.decide(dummy_sample(), table.fastest) is table.slowest

    def test_validation(self, table):
        with pytest.raises(GovernorError):
            OraclePerformanceMaximizer(table, lambda p: 1.0, 0.0)
        with pytest.raises(GovernorError):
            OraclePerformanceMaximizer(table, lambda p: 1.0, 10.0, margin_w=-1)


class TestMachineIntegration:
    def test_oracle_power_hook_matches_executed_power(
        self, machine, tiny_core_workload
    ):
        machine.load(tiny_core_workload)
        predicted = machine.oracle_power(machine.current_pstate)
        # The run reloads the workload: the first tick starts from the
        # state the prediction saw.
        probe = EventProbe(machine.config.table, 2000.0, (Event.INST_RETIRED,))
        result = PowerManagementController(machine, probe).run(
            tiny_core_workload, until_s=machine.config.tick_s
        )
        assert result.trace[0].true_power_w == pytest.approx(
            predicted, rel=0.01
        )

    def test_oracle_upper_bounds_pm(self, tiny_core_workload):
        workload = tiny_core_workload.scaled(8.0)
        runs = {}
        for label, factory in (
            ("oracle", lambda m: OraclePerformanceMaximizer(
                m.config.table, m.oracle_power, 13.5)),
            ("pm", lambda m: PerformanceMaximizer(
                m.config.table, MODEL, 13.5)),
        ):
            machine = Machine(MachineConfig(seed=0))
            controller = PowerManagementController(machine, factory(machine))
            runs[label] = controller.run(workload)
        assert runs["oracle"].duration_s <= runs["pm"].duration_s * 1.01
        assert runs["oracle"].violation_fraction(13.5) < 0.02
