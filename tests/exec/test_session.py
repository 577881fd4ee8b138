"""open_session subsumes the ambient context stack and the engine.

One ``open_session`` call must replace the historical four-deep
``recording() / injecting() / adapting() / checkpointing()`` nest: the
options install ambiently for legacy callees, carry as data into the
plan, and the same handle routes ``execute_cells`` from any layer.
"""

from __future__ import annotations

import pytest

from repro.adaptation.context import current_adaptation_config
from repro.adaptation.manager import AdaptationConfig
from repro.checkpoint.context import current_checkpoint_session
from repro.checkpoint.digest import run_result_digest
from repro.checkpoint.session import ExperimentCheckpointSession
from repro.exec.plan import ExperimentConfig, GovernorSpec, RunCell
from repro.exec.session import (
    ExecSession,
    current_session,
    execute_cells,
    executing,
    open_session,
)
from repro.exec.core import execute_cell
from repro.faults.context import current_fault_plan
from repro.faults.plan import FaultPlan, SampleFaults
from repro.telemetry.recorder import TelemetryRecorder
from repro.workloads.registry import get_workload

CONFIG = ExperimentConfig(scale=0.05, seed=2)

CELLS = (
    RunCell(workload="ammp", governor=GovernorSpec.fixed(1600.0)),
    RunCell(workload="mcf", governor=GovernorSpec.ps(0.8)),
)


def _digests(results):
    return [run_result_digest(r) for r in results]


def test_open_session_installs_and_restores_ambient_state():
    faults = FaultPlan(seed=9, sample=SampleFaults(drop_prob=0.01))
    adaptation = AdaptationConfig(cooldown_ticks=123)
    recorder = TelemetryRecorder()
    assert current_session() is None
    with open_session(
        telemetry=recorder, faults=faults, adaptation=adaptation
    ) as session:
        assert current_session() is session
        assert current_fault_plan() is faults
        assert current_adaptation_config() is adaptation
    assert current_session() is None
    assert current_fault_plan() is None
    assert current_adaptation_config() is None


def test_session_run_matches_legacy_entry_point():
    workload = get_workload("ammp")
    spec = GovernorSpec.pm(14.5, power_model="paper")
    legacy = execute_cell(
        RunCell(workload=workload, governor=spec), CONFIG
    )
    with open_session() as session:
        new = session.run(workload, spec, CONFIG)
    assert run_result_digest(new) == run_result_digest(legacy)


def test_execute_cells_routes_through_ambient_session():
    serial = _digests(execute_cells(CELLS, CONFIG))  # no session: in-order
    session = ExecSession(workers=2)
    with executing(session):
        routed = execute_cells(CELLS, CONFIG)
    assert _digests(routed) == serial
    assert session.last_runner is not None  # it really went to the pool


def test_session_faults_change_results():
    with open_session() as session:
        clean = session.run_cells(CELLS, CONFIG)
    faults = FaultPlan(seed=4, sample=SampleFaults(garble_prob=0.2))
    with open_session(faults=faults) as session:
        faulty = session.run_cells(CELLS, CONFIG)
    assert _digests(clean) != _digests(faulty)


@pytest.mark.parametrize("resume_workers", [0, 2])
def test_checkpointed_session_replays_on_resume(tmp_path, resume_workers):
    directory = tmp_path / "ckpt"
    with ExperimentCheckpointSession.create(
        directory, experiment="exec-test"
    ) as ckpt:
        with open_session(checkpoint=ckpt) as session:
            assert current_checkpoint_session() is ckpt
            first = session.run_cells(CELLS, CONFIG)
    with ExperimentCheckpointSession.open(directory) as ckpt:
        with open_session(checkpoint=ckpt, workers=resume_workers) as session:
            second = session.run_cells(CELLS, CONFIG)
        assert ckpt.replayed == len(CELLS)
    assert _digests(second) == _digests(first)


def test_parallel_session_archives_every_cell(tmp_path):
    directory = tmp_path / "ckpt"
    with ExperimentCheckpointSession.create(
        directory, experiment="exec-test"
    ) as ckpt:
        with open_session(checkpoint=ckpt, workers=2) as session:
            first = session.run_cells(CELLS, CONFIG)
    with ExperimentCheckpointSession.open(directory) as ckpt:
        with open_session(checkpoint=ckpt) as session:
            second = session.run_cells(CELLS, CONFIG)
        assert ckpt.replayed == len(CELLS)
    assert _digests(second) == _digests(first)


def test_parallel_session_writes_merged_telemetry(tmp_path):
    out = tmp_path / "telemetry"
    with open_session(workers=2, telemetry_dir=out) as session:
        session.run_cells(CELLS, CONFIG)
    assert (out / "metrics.json").exists()
    assert (out / "summary.txt").exists()
    workers = [p for p in out.iterdir()
               if p.is_dir() and p.name.startswith("worker-")]
    assert workers  # per-worker directories kept for debugging
    merged = (out / "summary.txt").read_text()
    assert "merged run summary" in merged
