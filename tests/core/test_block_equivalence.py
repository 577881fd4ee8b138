"""The fused-loop contract: FAST_LOOP on/off is unobservable.

``controller._run_loop`` dispatches eligible runs to the fused tick
kernel (:mod:`repro.core.blockloop`); everything else takes the
historical scalar loop.  The contract is *bit-identical results* -- the
float-exact :func:`run_result_digest` (which covers every trace row,
meter sample, and energy accumulator) must not change with the
dispatch decision, for eligible and ineligible runs alike, including
an archive written on one loop and resumed on the other.
"""

from __future__ import annotations

import pytest

from repro.adaptation.manager import AdaptationConfig, AdaptationManager
from repro.checkpoint import (
    ExperimentCheckpointSession,
    RunJournal,
    run_result_digest,
)
from repro.checkpoint.session import RESULTS_FILENAME
from repro.core import blockloop
from repro.core.controller import PowerManagementController
from repro.core.governors.unconstrained import FixedFrequency
from repro.exec import (
    ExperimentConfig,
    GovernorSpec,
    RunCell,
    RunPlan,
    execute_cell,
    open_session,
)
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


def _workload():
    return default_registry().get("ammp").scaled(0.4)


# -- kill / resume between cells ---------------------------------------------

#: Cells of every fused decision family: projection table (PM, PS) and
#: constant target (Fixed, starting at P0 so it actuates once).
RESUME_PLAN = RunPlan(
    config=ExperimentConfig(scale=0.4, seed=11, keep_trace=True),
    cells=tuple(
        RunCell(workload=workload, governor=GOVERNORS[name])
        for workload in ("ammp", "gzip")
        for name in ("paper-pm", "ps", "fixed")
    ),
)


def _checkpointed(directory, telemetry=None, resume=False):
    """Run :data:`RESUME_PLAN` archived into ``directory``.

    Returns the per-cell digests and how many cells replayed from the
    archive.
    """
    checkpoint = (
        ExperimentCheckpointSession.open(directory, telemetry=telemetry)
        if resume
        else ExperimentCheckpointSession.create(
            directory, "drill", telemetry=telemetry
        )
    )
    with checkpoint, open_session(
        telemetry=telemetry, checkpoint=checkpoint
    ) as session:
        results = session.run_plan(RESUME_PLAN)
    return [run_result_digest(r) for r in results], checkpoint.replayed


def _cut(directory, keep):
    """Tear the results journal after ``keep`` records, as SIGKILL does.

    Garbage past the last durable record is a half-written append.
    """
    journal = RunJournal.open(directory, filename=RESULTS_FILENAME)
    end = journal.records()[keep - 1].end_offset
    with open(journal.journal_path, "r+b") as handle:
        handle.truncate(end + 7)


def test_scalar_journal_resumes_under_fast_loop(tmp_path, monkeypatch):
    """An archive written by the scalar loop resumes under the fast one.

    The archived cells replay; the interrupted cell and the rest rerun
    on the fused kernel and finish bit-identical to the scalar run.
    """
    monkeypatch.setattr(blockloop, "FAST_LOOP", False)
    baseline, _ = _checkpointed(tmp_path / "j")
    keep = len(RESUME_PLAN) // 2
    _cut(tmp_path / "j", keep)
    monkeypatch.setattr(blockloop, "FAST_LOOP", True)
    resumed, replayed = _checkpointed(tmp_path / "j", resume=True)
    assert replayed == keep
    assert resumed == baseline


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
