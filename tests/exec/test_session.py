"""open_session is the one ambient scope and the engine handle.

One ``open_session`` call carries every option of a run: it becomes the
current session, :func:`execute_cell` takes each option it is not given
from it, a nested session inherits the enclosing one's recorder, fault
plan, adaptation config and checkpoint session, and the same handle
routes ``execute_cells`` from any layer.
"""

from __future__ import annotations

import pytest

from repro.adaptation.manager import AdaptationConfig
from repro.checkpoint.digest import run_result_digest
from repro.checkpoint.session import ExperimentCheckpointSession
from repro.core.resilience import ResilienceConfig
from repro.exec.plan import ExperimentConfig, GovernorSpec, RunCell, RunPlan
from repro.exec.session import (
    ExecSession,
    current_session,
    execute_cells,
    open_session,
)
from repro.exec.core import execute_cell
from repro.faults.plan import FaultPlan, SampleFaults
from repro.telemetry.recorder import TelemetryRecorder
from repro.workloads.registry import get_workload

CONFIG = ExperimentConfig(scale=0.05, seed=2)

CELLS = (
    RunCell(workload="ammp", governor=GovernorSpec.fixed(1600.0)),
    RunCell(workload="mcf", governor=GovernorSpec.ps(0.8)),
)

FAULTS = FaultPlan(seed=4, sample=SampleFaults(garble_prob=0.2))


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
        assert session.telemetry is recorder
        assert session.faults is faults
        assert session.adaptation is adaptation
    assert current_session() is None


def test_nested_session_inherits_the_enclosing_options(tmp_path):
    recorder = TelemetryRecorder()
    adaptation = AdaptationConfig()
    with ExperimentCheckpointSession.create(
        tmp_path / "ckpt", experiment="exec-test"
    ) as ckpt:
        with open_session(
            workers=2,
            telemetry=recorder,
            faults=FAULTS,
            adaptation=adaptation,
            resilience=ResilienceConfig(),
            checkpoint=ckpt,
        ) as outer:
            with open_session() as inner:
                assert current_session() is inner
                assert inner.telemetry is recorder
                assert inner.faults is FAULTS
                assert inner.adaptation is adaptation
                assert inner.checkpoint is ckpt
                # Not carried by the old contexts, so not inherited.
                assert inner.workers == 0
                assert inner.resilience is None
            faults = FaultPlan(seed=1)
            with open_session(
                telemetry_dir=tmp_path / "tel", faults=faults
            ) as own:
                assert own.telemetry is not recorder
                assert own.faults is faults
                assert own.checkpoint is ckpt
            assert current_session() is outer
    assert current_session() is None


def test_session_run_matches_legacy_entry_point():
    workload = get_workload("ammp")
    spec = GovernorSpec.pm(14.5, power_model="paper")
    legacy = execute_cell(
        RunCell(workload=workload, governor=spec), CONFIG
    )
    with open_session() as session:
        new = session.run(workload, spec, CONFIG)
    assert run_result_digest(new) == run_result_digest(legacy)


def test_execute_cell_resolves_cell_then_argument_then_session():
    cell = CELLS[1]
    other = FaultPlan(seed=5, sample=SampleFaults(garble_prob=0.2))

    def digest(run_cell, **kwargs):
        return run_result_digest(execute_cell(run_cell, CONFIG, **kwargs))

    clean = digest(cell)
    by_session = digest(cell, fault_plan=FAULTS)
    by_other = digest(cell, fault_plan=other)
    assert clean != by_session != by_other != clean
    with open_session(faults=FAULTS):
        assert digest(cell) == by_session
        assert digest(cell, fault_plan=other) == by_other
        on_cell = RunCell(
            workload=cell.workload, governor=cell.governor, fault_plan=other
        )
        assert digest(on_cell, fault_plan=FAULTS) == by_other


def test_execute_cells_routes_through_ambient_session():
    serial = _digests(execute_cells(CELLS, CONFIG))  # no session: in-order
    with open_session(workers=2) as session:
        routed = execute_cells(CELLS, CONFIG)
    assert _digests(routed) == serial
    assert session.last_runner is not None  # it really went to the pool


def test_iter_plan_runs_each_cell_when_its_result_is_taken(tmp_path):
    plan = RunPlan(config=CONFIG, cells=CELLS)
    with ExperimentCheckpointSession.create(
        tmp_path / "ckpt", experiment="lazy"
    ) as ckpt:
        session = ExecSession(checkpoint=ckpt)
        results = session.iter_plan(plan)
        assert ckpt.archived_count == 0
        first = next(results)
        assert ckpt.archived_count == 1
        assert current_session() is None  # current only while a cell runs
        rest = list(results)
    assert _digests([first, *rest]) == _digests(execute_cells(CELLS, CONFIG))


def test_session_faults_change_results():
    with open_session() as session:
        clean = session.run_cells(CELLS, CONFIG)
    with open_session(faults=FAULTS) as session:
        faulty = session.run_cells(CELLS, CONFIG)
    assert _digests(clean) != _digests(faulty)


def test_run_plan_takes_unset_options_from_its_session():
    plan = RunPlan(config=CONFIG, cells=CELLS)
    with open_session(faults=FAULTS) as session:
        serial = session.run_plan(plan)
    with open_session(faults=FAULTS, workers=2) as session:
        pooled = session.run_plan(plan)
    with open_session() as session:
        clean = session.run_plan(plan)
    assert _digests(pooled) == _digests(serial) != _digests(clean)


def test_direct_session_ignores_the_current_one(tmp_path):
    """A session built directly runs under its own options only."""
    with ExperimentCheckpointSession.create(
        tmp_path / "ckpt", experiment="exec-test"
    ) as ckpt:
        recorder = TelemetryRecorder()
        with open_session(
            telemetry=recorder, faults=FAULTS, checkpoint=ckpt
        ) as outer:
            bare = ExecSession().run_cells(CELLS, CONFIG)
            assert current_session() is outer
        assert ckpt.archived_count == 0
        assert recorder.metrics.counter("controller.ticks").value == 0
    assert _digests(bare) == _digests(execute_cells(CELLS, CONFIG))


def _require_no_current_session(index: int) -> None:
    if current_session() is not None:
        raise RuntimeError("worker inherited the parent's session")


def test_pool_workers_start_without_a_current_session(tmp_path):
    directory = tmp_path / "ckpt"
    recorder = TelemetryRecorder()
    with ExperimentCheckpointSession.create(
        directory, experiment="exec-test"
    ) as ckpt:
        with open_session(
            telemetry=recorder, faults=FAULTS, checkpoint=ckpt
        ):
            pool = ExecSession(
                workers=2, cell_hook=_require_no_current_session
            )
            pooled = pool.run_cells(CELLS, CONFIG)
            with open_session(workers=2) as session:
                session.run_cells(CELLS, CONFIG)
    assert _digests(pooled) == _digests(execute_cells(CELLS, CONFIG))
    # Only the parent claimed slots: one archive record per cell.
    with ExperimentCheckpointSession.open(directory) as ckpt:
        assert ckpt.archived_count == len(CELLS)
    assert recorder.metrics.counter("controller.ticks").value == 0


@pytest.mark.parametrize("resume_workers", [0, 2])
def test_checkpointed_session_replays_on_resume(tmp_path, resume_workers):
    directory = tmp_path / "ckpt"
    with ExperimentCheckpointSession.create(
        directory, experiment="exec-test"
    ) as ckpt:
        with open_session(checkpoint=ckpt) as session:
            assert session.checkpoint is ckpt
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
