"""open_session is the one ambient scope and the engine handle.

One ``open_session`` call holds the recorder, the result store and the
worker count of a run and becomes the current session; its ``faults``
/ ``adaptation`` are a stamp on the cells it runs, while the cell is
the one carrier of a run's options.  :func:`execute_cell` reads the
cell alone, and a nested session takes nothing from the enclosing one.
"""

from __future__ import annotations

import pytest

from repro.adaptation.manager import AdaptationConfig
from repro.campaign.store import ResultStore
from repro.checkpoint.digest import run_result_digest
from repro.errors import PlanError
from repro.exec.plan import ExperimentConfig, GovernorSpec, RunCell, RunPlan
from repro.exec.session import (
    ExecSession,
    current_session,
    open_session,
)
from repro.exec.core import execute_cell
from repro.experiments import runner
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


def _serial(cells):
    """The cells run in order, in process, with no options beyond
    their own."""
    return ExecSession().run_cells(cells, CONFIG)


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
        with open_session() as inner:
            assert current_session() is inner
            assert inner.telemetry is None and inner.faults is None
        assert current_session() is session
    assert current_session() is None


def test_session_run_matches_legacy_entry_point():
    spec = GovernorSpec.pm(14.5, power_model="paper")
    legacy = execute_cell(RunCell(workload="ammp", governor=spec), CONFIG)
    with open_session() as session:
        new = session.run("ammp", spec, CONFIG)
    assert run_result_digest(new) == run_result_digest(legacy)


def test_execute_cell_reads_its_options_from_the_cell_alone():
    cell = CELLS[1]
    faulted = RunCell(
        workload=cell.workload, governor=cell.governor, fault_plan=FAULTS
    )

    def digest(run_cell):
        return run_result_digest(execute_cell(run_cell, CONFIG))

    clean, by_cell = digest(cell), digest(faulted)
    assert clean != by_cell
    with open_session(faults=FAULTS, adaptation=AdaptationConfig()):
        assert digest(cell) == clean
        assert digest(faulted) == by_cell


def test_execute_plans_routes_through_ambient_session():
    serial = _digests(_serial(CELLS))
    plan = RunPlan(config=CONFIG, cells=CELLS)
    with open_session(workers=2) as session:
        (routed,) = runner.execute_plans([plan])
        routed = list(routed)
    assert _digests(routed) == serial
    assert session.last_runner is not None  # it really went to the pool


def test_iter_plan_runs_each_cell_when_its_result_is_taken(tmp_path):
    plan = RunPlan(config=CONFIG, cells=CELLS)
    with ResultStore(tmp_path / "ckpt") as ckpt:
        session = ExecSession(store=ckpt)
        results = session.iter_plan(plan)
        assert ckpt.object_digests() == []
        first = next(results)
        assert len(ckpt.object_digests()) == 1
        assert current_session() is None  # current only while a cell runs
        rest = list(results)
    assert _digests([first, *rest]) == _digests(_serial(CELLS))


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
    with ResultStore(tmp_path / "ckpt") as ckpt:
        recorder = TelemetryRecorder()
        with open_session(
            telemetry=recorder, faults=FAULTS, store=ckpt
        ) as outer:
            bare = ExecSession().run_cells(CELLS, CONFIG)
            assert current_session() is outer
        assert ckpt.object_digests() == []
        assert recorder.metrics.counter("controller.ticks").value == 0
    assert _digests(bare) == _digests(_serial(CELLS))


def _require_no_current_session(index: int) -> None:
    if current_session() is not None:
        raise RuntimeError("worker inherited the parent's session")


def test_pool_workers_start_without_a_current_session(tmp_path):
    directory = tmp_path / "ckpt"
    recorder = TelemetryRecorder()
    with ResultStore(directory) as ckpt:
        with open_session(
            telemetry=recorder, faults=FAULTS, store=ckpt
        ):
            pool = ExecSession(
                workers=2, cell_hook=_require_no_current_session
            )
            pooled = pool.run_cells(CELLS, CONFIG)
            with open_session(workers=2, store=ckpt) as session:
                session.run_cells(CELLS, CONFIG)
    assert _digests(pooled) == _digests(_serial(CELLS))
    # The direct pool session has no store; the inner one is given it
    # and the parent puts one record per cell.
    with ResultStore(directory, create=False) as ckpt:
        assert len(ckpt.object_digests()) == len(CELLS)
    assert recorder.metrics.counter("controller.ticks").value == 0


@pytest.mark.parametrize("resume_workers", [0, 2])
def test_checkpointed_session_replays_on_resume(tmp_path, resume_workers):
    directory = tmp_path / "ckpt"
    with ResultStore(directory) as ckpt:
        with open_session(store=ckpt) as session:
            assert session.store is ckpt
            first = session.run_cells(CELLS, CONFIG)
    with ResultStore(directory, create=False) as ckpt:
        with open_session(store=ckpt, workers=resume_workers) as session:
            second = session.run_cells(CELLS, CONFIG)
        assert ckpt.hits == len(CELLS)
    assert _digests(second) == _digests(first)


def test_parallel_session_archives_every_cell(tmp_path):
    directory = tmp_path / "ckpt"
    with ResultStore(directory) as ckpt:
        with open_session(store=ckpt, workers=2) as session:
            first = session.run_cells(CELLS, CONFIG)
    with ResultStore(directory, create=False) as ckpt:
        assert len(ckpt.object_digests()) == len(CELLS)
        with open_session(store=ckpt) as session:
            second = session.run_cells(CELLS, CONFIG)
        assert ckpt.hits == len(CELLS)
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


def test_store_keeps_only_cells_a_session_plan_runs(tmp_path):
    """A direct ``execute_cell`` is never stored, not even under a
    store; a cell cannot hold a workload with no canonical spec."""
    with pytest.raises(PlanError, match="pass the workload's name"):
        RunCell(workload=get_workload("ammp"), governor=CELLS[0].governor)
    with ResultStore(tmp_path / "store") as store:
        with open_session(store=store):
            direct = execute_cell(CELLS[1], CONFIG)
        assert store.object_digests() == []
    assert _digests([direct]) == _digests(_serial(CELLS[1:]))


@pytest.mark.parametrize("workers", [0, 2])
def test_session_without_a_store_computes_no_digest(monkeypatch, workers):
    from repro.campaign import store

    def refuse(*args, **kwargs):
        raise AssertionError("digested a cell with no store")

    monkeypatch.setattr(store, "cell_digest", refuse)
    monkeypatch.setattr(store, "campaign_cell_spec", refuse)
    with open_session(workers=workers) as session:
        results = session.run_cells(CELLS, CONFIG)
    assert _digests(results) == _digests(_serial(CELLS))


@pytest.mark.parametrize("keep", [None, 0, 1, 2])
def test_recurring_cell_keeps_the_uninterrupted_metrics(tmp_path, keep):
    """A digest that recurs in one store opening runs again under a
    recorder, so ``[A, B, A]`` folds A twice with or without a store,
    fresh (``keep=None``) or resumed from a log cut after ``keep``
    records."""
    from tests.core.golden_cells import cut

    cells = [CELLS[0], CELLS[1], CELLS[0]]
    plain = TelemetryRecorder()
    with open_session(telemetry=plain) as session:
        baseline = session.run_cells(cells, CONFIG)
    directory = tmp_path / "store"
    if keep is not None:
        with ResultStore(directory) as store:
            with open_session(
                telemetry=TelemetryRecorder(), store=store
            ) as session:
                session.run_cells(cells, CONFIG)
        cut(directory, keep)
    recorder = TelemetryRecorder()
    with ResultStore(directory) as store:
        with open_session(telemetry=recorder, store=store) as session:
            results = session.run_cells(cells, CONFIG)
        assert len(store.object_digests()) == 2
    assert _digests(results) == _digests(baseline)
    assert recorder.metrics.snapshot() == plain.metrics.snapshot()


def test_recurring_cell_is_served_without_a_recorder(tmp_path):
    """A fresh store serves the recurrence from the record the session
    put itself, which is not a hit: nothing was resumed."""
    with ResultStore(tmp_path / "store") as store:
        with open_session(store=store) as session:
            results = session.run_cells([CELLS[0], CELLS[0]], CONFIG)
        assert store.hits == 0
    assert _digests(results) == _digests([execute_cell(CELLS[0], CONFIG)]) * 2


def test_hits_count_each_resumed_digest_once(tmp_path):
    """``[A, B, A]`` resumed from a store holding ``[A]`` resumes one
    run: A's recurrence and B, put by the session, add no hit."""
    cells = [CELLS[0], CELLS[1], CELLS[0]]
    with ResultStore(tmp_path / "store") as store:
        with open_session(store=store) as session:
            session.run_cells(cells[:1], CONFIG)
    with ResultStore(tmp_path / "store", create=False) as store:
        with open_session(store=store) as session:
            results = session.run_cells(cells, CONFIG)
        assert store.hits == 1
        assert len(store.object_digests()) == 2
    assert _digests(results) == _digests(_serial(cells))
