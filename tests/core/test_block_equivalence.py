"""The fused-loop contract: FAST_LOOP on/off is unobservable.

``controller._run_loop`` dispatches eligible runs to the fused tick
kernel (:mod:`repro.core.blockloop`); everything else takes the
historical scalar loop.  The contract is *bit-identical results* -- the
float-exact :func:`run_result_digest` (which covers every trace row,
meter sample, and energy accumulator) must not change with the
dispatch decision, for eligible and ineligible runs alike, including
kills and resumes that land between checkpoints.
"""

from __future__ import annotations

import shutil

import pytest

from repro.adaptation.manager import AdaptationConfig, AdaptationManager
from repro.checkpoint import (
    RunCheckpointer,
    RunJournal,
    resume_run,
    run_result_digest,
)
from repro.core import blockloop
from repro.core.controller import PowerManagementController
from repro.core.governors.performance_maximizer import PerformanceMaximizer
from repro.core.governors.powersave import PowerSave
from repro.core.governors.unconstrained import FixedFrequency
from repro.core.models.performance import PerformanceModel
from repro.core.models.power import LinearPowerModel
from repro.exec import ExperimentConfig, GovernorSpec, RunCell, execute_cell
from repro.faults.plan import FaultPlan, MeterFaults, SampleFaults
from repro.platform.blockstep import block_capable
from repro.platform.machine import Machine, MachineConfig
from repro.platform.thermal import ThermalModel
from repro.telemetry import TelemetryRecorder
from repro.workloads.registry import default_registry

CONFIG = ExperimentConfig(scale=0.25, seed=5, keep_trace=True)

#: The governor archetypes: DBS (utilization, the OS baseline), the
#: paper's PM (model-projected power capping) and PS (Eq. 3 floor, the
#: Fig. 9 governor), a fixed frequency (the constant-target decision
#: mode) and the energy-optimal oracle (measured-power feedback ->
#: scalar-only).
GOVERNORS = {
    "dbs": GovernorSpec.dbs(),
    "paper-pm": GovernorSpec.pm(14.5, power_model="paper"),
    "ps": GovernorSpec.ps(0.6),
    "fixed": GovernorSpec.fixed(1400.0),
    "energy-optimal": GovernorSpec.energy_optimal(),
}

PLAN = FaultPlan(
    seed=7,
    sample=SampleFaults(drop_prob=0.05, garble_prob=0.02),
    meter=MeterFaults(spike_prob=0.02, drift_rate_per_s=0.01,
                      drift_start_s=0.1),
)


def _digest(spec, *, fast, monkeypatch, faults=False, adapt=False):
    monkeypatch.setattr(blockloop, "FAST_LOOP", fast)
    result = execute_cell(
        RunCell(workload="gzip", governor=spec),
        CONFIG,
        fault_plan=PLAN if faults else None,
        adaptation=AdaptationManager(AdaptationConfig()) if adapt else None,
    )
    return run_result_digest(result)


@pytest.mark.parametrize("name", sorted(GOVERNORS))
@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("adapt", [False, True], ids=["frozen", "adapt"])
def test_fast_loop_digest_matches_scalar(name, faults, adapt, monkeypatch):
    spec = GOVERNORS[name]
    scalar = _digest(spec, fast=False, monkeypatch=monkeypatch,
                     faults=faults, adapt=adapt)
    fast = _digest(spec, fast=True, monkeypatch=monkeypatch,
                   faults=faults, adapt=adapt)
    assert fast == scalar


def test_thermal_machine_falls_back_to_scalar_loop(monkeypatch):
    """A thermal machine is not fusable: the run takes the scalar loop
    whatever FAST_LOOP says, so its digest is trivially the same."""
    assert not block_capable(Machine(MachineConfig(thermal=ThermalModel())))

    def digest(fast):
        monkeypatch.setattr(blockloop, "FAST_LOOP", fast)
        machine = Machine(MachineConfig(seed=11, thermal=ThermalModel()))
        governor = FixedFrequency(machine.config.table, 1400.0)
        controller = PowerManagementController(
            machine, governor, keep_trace=True
        )
        return run_result_digest(controller.run(_workload()))

    assert digest(True) == digest(False)


# -- kill / resume between checkpoints ---------------------------------------

INTERVAL = 10

#: One governor per fused decision family: projection table (PM, PS)
#: and constant target (Fixed, starting at P0 so it actuates once).
KILL_GOVERNORS = {
    "pm": lambda table: PerformanceMaximizer(
        table, LinearPowerModel.paper_model(), 14.5
    ),
    "ps": lambda table: PowerSave(
        table, PerformanceModel.paper_primary(), 0.6
    ),
    "fixed": lambda table: FixedFrequency(table, 1400.0),
}


def _controller(name="pm"):
    machine = Machine(MachineConfig(seed=11))
    governor = KILL_GOVERNORS[name](machine.config.table)
    return PowerManagementController(machine, governor, keep_trace=True)


def _workload():
    return default_registry().get("ammp").scaled(0.4)


def _checkpointed_run(directory, name="pm"):
    journal = RunJournal.create(directory, kind="run",
                                interval_ticks=INTERVAL)
    try:
        result = _controller(name).run(
            _workload(), checkpointer=RunCheckpointer(journal)
        )
    finally:
        journal.close()
    return result


def _truncate(directory, offset):
    with open(directory / "run.journal", "r+b") as handle:
        handle.truncate(offset)


def test_mid_block_kill_and_resume_bit_identical(tmp_path, monkeypatch):
    """Journal a fast run, tear it between checkpoints, resume both ways.

    A torn tail past a durable record boundary is exactly what a
    SIGKILL between checkpoints leaves behind: the resumed run restarts
    from the last durable checkpoint -- in the middle of what the fast
    loop ran as one stretch of fused ticks -- and must still finish
    bit-identical, whether the resumed leg itself runs fast or scalar.
    Checkpointed runs draw their Gaussians one at a time, so running
    this for every decision family pins the fused loop's scalar-RNG
    mode for each of them.
    """
    for name in sorted(KILL_GOVERNORS):
        base = tmp_path / name
        monkeypatch.setattr(blockloop, "FAST_LOOP", False)
        baseline = run_result_digest(_controller(name).run(_workload()))

        monkeypatch.setattr(blockloop, "FAST_LOOP", True)
        source = base / "j"
        checkpointed = _checkpointed_run(source, name)
        assert run_result_digest(checkpointed) == baseline, name

        records = RunJournal.open(source).records()
        assert len(records) > 3
        middle = records[len(records) // 2]
        for mode, fast in (("fast", True), ("scalar", False)):
            copy = base / f"cut-{mode}"
            shutil.copytree(source, copy)
            _truncate(copy, middle.end_offset + 7)
            monkeypatch.setattr(blockloop, "FAST_LOOP", fast)
            result, state = resume_run(copy)
            assert run_result_digest(result) == baseline, (name, mode)
            assert state.tick_index > middle.tick


def test_scalar_journal_resumes_under_fast_loop(tmp_path, monkeypatch):
    """Checkpoints written by the scalar loop restore into the fast one."""
    monkeypatch.setattr(blockloop, "FAST_LOOP", False)
    baseline = run_result_digest(_controller().run(_workload()))
    source = tmp_path / "j"
    _checkpointed_run(source)

    records = RunJournal.open(source).records()
    copy = tmp_path / "cut"
    shutil.copytree(source, copy)
    _truncate(copy, records[len(records) // 2].end_offset)
    monkeypatch.setattr(blockloop, "FAST_LOOP", True)
    result, _state = resume_run(copy)
    assert run_result_digest(result) == baseline


def test_last_decision_transition_adds_no_empty_residency(monkeypatch):
    """A p-state entered on the run's last decision never runs a tick.

    The scalar loop gives it no residency entry; the fused kernel must
    not add one as 0.0 when it syncs at loop exit.
    """
    cell = RunCell(
        workload="ammp", governor=GovernorSpec.pm(14.5, power_model="paper")
    )
    config = ExperimentConfig(scale=0.1, seed=3)
    digests = []
    for fast in (True, False):
        monkeypatch.setattr(blockloop, "FAST_LOOP", fast)
        digests.append(run_result_digest(execute_cell(cell, config)))
    assert digests[0] == digests[1]

    # The case under test: this cell's last decision moves it to a
    # state it has not run at.
    recorder = TelemetryRecorder()
    transitions = []
    recorder.bus.subscribe(
        lambda e: transitions.append(e) if e.kind == "transition" else None
    )
    result = execute_cell(cell, config, telemetry=recorder)
    assert transitions[-1].time_s == result.duration_s
    assert transitions[-1].to_mhz not in result.residency_s
