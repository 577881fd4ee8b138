"""Acceptance test: fault injection end to end.

Validates the ISSUE's acceptance criteria:

* a seeded plan injecting >= 5% dropped samples and >= 2 failed
  transitions does not crash ``run_governed``; the run completes, and
  the governor keeps power within the limit on valid samples;
* with ``--faults`` and ``--telemetry`` the journal records
  ``fault_injected`` / ``fault_recovered`` events;
* the same plan with ``enabled: false`` yields a bit-for-bit identical
  trace -- the injection layer costs nothing when off.
"""

import dataclasses
import json
import os

import pytest

from repro.cli import main
from repro.core.models.power import LinearPowerModel
from repro.exec import (
    ExperimentConfig,
    GovernorSpec,
    RunCell,
    execute_cell,
)
from repro.faults import FaultPlan, SampleFaults, TransitionFaults
from repro.telemetry import FaultInjected, TelemetryRecorder
from repro.workloads.registry import get_workload

MODEL = LinearPowerModel.paper_model()
LIMIT_W = 14.5

#: Seed 0 on gzip@0.5 injects ~10% sample drops and 2 transition
#: failures -- comfortably above the acceptance floor (5% / 2).
PLAN = FaultPlan(
    seed=0,
    sample=SampleFaults(drop_prob=0.08),
    transition=TransitionFaults(fail_prob=0.6),
)


def _pm_cell(name="gzip", fault_plan=None):
    return RunCell(
        workload=name,
        governor=GovernorSpec.pm(LIMIT_W, power_model=MODEL),
        fault_plan=fault_plan,
    )


@pytest.fixture(scope="module")
def faulted_run():
    recorder = TelemetryRecorder()
    events = []
    recorder.bus.subscribe(events.append)
    result = execute_cell(
        _pm_cell(fault_plan=PLAN),
        ExperimentConfig(scale=0.5, seed=0, keep_trace=True),
        telemetry=recorder,
    )
    return result, events


class TestGovernedRunSurvivesFaults:
    def test_fault_volume_meets_acceptance_floor(self, faulted_run):
        result, events = faulted_run
        injected = [e for e in events if isinstance(e, FaultInjected)]
        drops = sum(1 for e in injected if e.fault == "drop")
        fails = sum(1 for e in injected if e.fault == "transition_fail")
        assert drops / len(result.trace) >= 0.05
        assert fails >= 2

    def test_run_completes_all_work(self, faulted_run):
        result, _ = faulted_run
        workload = get_workload("gzip").scaled(0.5)
        assert result.instructions == pytest.approx(
            workload.total_instructions, rel=1e-6
        )
        assert not result.degraded

    def test_power_limit_respected_despite_faults(self, faulted_run):
        # No meter faults in the plan, so every sample is a valid
        # reading; the governed loop must keep honoring the limit.
        result, _ = faulted_run
        assert result.violation_fraction(LIMIT_W) == 0.0

    def test_every_fault_has_a_recovery(self, faulted_run):
        result, _ = faulted_run
        assert result.recoveries.get("sampler.holdover", 0) >= 1
        assert result.recoveries.get("driver.retry", 0) >= 1


class TestJournalRecordsFaults:
    @pytest.fixture(scope="class")
    def journal(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("faulted")
        spec = root / "plan.json"
        spec.write_text(json.dumps(PLAN.to_dict()))
        directory = root / "telemetry"
        code = main(
            ["run", "gzip", "--governor", "pm", "--limit", str(LIMIT_W),
             "--scale", "0.5", "--use-paper-model",
             "--faults", str(spec), "--telemetry", str(directory)]
        )
        assert code == 0
        with open(directory / "events.jsonl") as handle:
            return [json.loads(line) for line in handle if line.strip()]

    def test_journal_contains_fault_events(self, journal):
        kinds = [e["kind"] for e in journal]
        assert "fault_injected" in kinds
        assert "fault_recovered" in kinds

    def test_fault_events_name_subsystem_and_action(self, journal):
        injected = [e for e in journal if e["kind"] == "fault_injected"]
        assert {"sampler", "driver"} <= {e["subsystem"] for e in injected}
        recovered = [e for e in journal if e["kind"] == "fault_recovered"]
        assert {e["action"] for e in recovered} >= {"holdover", "retry"}


class TestDisabledPlanIsFree:
    def test_disabled_plan_trace_is_bit_for_bit_identical(self):
        config = ExperimentConfig(scale=0.5, seed=0, keep_trace=True)
        baseline = execute_cell(_pm_cell(), config)
        gated = execute_cell(
            _pm_cell(fault_plan=dataclasses.replace(PLAN, enabled=False)),
            config,
        )
        assert gated.trace == baseline.trace
        assert gated.samples == baseline.samples
        assert gated.measured_energy_j == baseline.measured_energy_j
        assert gated.recoveries == {}


@pytest.mark.skipif(
    not os.environ.get("REPRO_FAULT_SMOKE"),
    reason="set REPRO_FAULT_SMOKE=1 to run the fault-injection smoke sweep",
)
def test_fault_smoke_sweep():
    """CI smoke: several workloads complete under a hostile plan."""
    plan = FaultPlan(
        seed=3,
        sample=SampleFaults(drop_prob=0.1, garble_prob=0.05),
        transition=TransitionFaults(fail_prob=0.3, stall_prob=0.2),
    )
    config = ExperimentConfig(scale=0.2, seed=0)
    for name in ("gzip", "swim", "crafty"):
        result = execute_cell(_pm_cell(name, fault_plan=plan), config)
        workload = get_workload(name).scaled(config.scale)
        assert result.instructions == pytest.approx(
            workload.total_instructions, rel=1e-6
        )
