"""Multicore cells are first-class cells.

A ``threads > 1`` cell runs through the same controller and kernel as a
single-core cell, so it takes every per-tick hook (fault injection,
online adaptation, the resilience runtime, and the controller's
constraint schedules), and an observed one publishes the same
telemetry: ``RunStarted`` / ``RunFinished``, the run metrics and one
``ticks`` record.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.adaptation.manager import AdaptationConfig
from repro.checkpoint.digest import run_result_digest
from repro.core.controller import PowerManagementController
from repro.core.limits import ConstraintSchedule
from repro.core.resilience import ResilienceConfig
from repro.exec import (
    ExperimentConfig,
    GovernorSpec,
    RunCell,
    RunPlan,
    execute_cell,
    open_session,
    prepare_cell,
)
from repro.experiments import multicore_scaling
from repro.faults import FaultPlan
from repro.multicore.machine import MulticoreConfig, MulticoreMachine
from repro.telemetry.report import load_events, render_report
from repro.workloads.registry import get_workload

CONFIG = ExperimentConfig(scale=0.2, seed=4)

PM = GovernorSpec.pm(14.5, power_model="paper")

FAULTS = FaultPlan.from_dict({
    "seed": 1, "sample": {"drop_prob": 0.1},
    "transition": {"fail_prob": 0.3, "stall_prob": 0.3},
})


def _schedule() -> ConstraintSchedule:
    schedule = ConstraintSchedule()
    schedule.add_power_limit(0.05, 10.5)
    return schedule


def _cell(workload="ammp", **options) -> RunCell:
    return RunCell(workload=workload, governor=PM, threads=2, **options)


def test_faulted_cell_injects_and_completes():
    prepared = prepare_cell(_cell(fault_plan=FAULTS), CONFIG)
    result = prepared.execute()
    assert prepared.injector.total_injected > 0
    assert sum(result.recoveries.values()) > 0
    plain = execute_cell(_cell(), CONFIG)
    assert result.instructions == pytest.approx(plain.instructions)
    assert run_result_digest(result) != run_result_digest(plain)


def test_adapted_cell_completes():
    prepared = prepare_cell(_cell(adaptation=AdaptationConfig()), CONFIG)
    result = prepared.execute()
    assert prepared.adaptation is not None
    assert result.instructions == pytest.approx(
        execute_cell(_cell(), CONFIG).instructions
    )


def test_resilient_cell_completes():
    result = execute_cell(_cell(resilience=ResilienceConfig()), CONFIG)
    assert not result.degraded
    assert result.instructions > 0


def _controller_run(schedule=None):
    """PM on a two-core machine, driven by the controller directly (a
    schedule is a controller option, not a cell's)."""
    machine = MulticoreMachine(
        MulticoreConfig(n_cores=2, machine=CONFIG.machine_config())
    )
    controller = PowerManagementController(
        machine, PM.build(CONFIG.table, seed=CONFIG.seed), keep_trace=False
    )
    return controller.run(
        get_workload("ammp").scaled(CONFIG.scale), schedule=schedule
    )


def test_scheduled_cell_takes_the_new_limit():
    scheduled = _controller_run(_schedule())
    plain = _controller_run()
    assert run_result_digest(plain) == run_result_digest(
        execute_cell(_cell(), CONFIG)
    )
    assert scheduled.instructions == pytest.approx(plain.instructions)
    # A tighter limit from 50 ms on: slower, and at lower frequencies.
    assert scheduled.duration_s > plain.duration_s
    assert min(scheduled.residency_s) < min(plain.residency_s)


#: An observed two-core sweep: PM (estimates, so Eq. 2 residuals) and
#: PS on a mixed and a memory-bound workload.
OBSERVED = RunPlan.sweep(
    ["ammp", "swim"], [PM, GovernorSpec.ps(0.8)], CONFIG, threads=(2,),
)


def _body(text: str) -> str:
    """A report without its header line and wall-clock spans."""
    return text.split("\n", 1)[1].split("spans (wall clock):")[0]


def test_observed_cells_report_like_single_core_ones(tmp_path):
    with open_session() as session:
        plain = session.run_plan(OBSERVED)
    with open_session(telemetry_dir=tmp_path / "serial") as session:
        serial = session.run_plan(OBSERVED)
    with open_session(
        workers=2, telemetry_dir=tmp_path / "parallel"
    ) as session:
        session.run_plan(OBSERVED)
    # Watching a run does not change it.
    assert [run_result_digest(r) for r in serial] == [
        run_result_digest(r) for r in plain
    ]
    events, _, _ = load_events(tmp_path / "serial" / "events.jsonl")
    kinds = [event["kind"] for event in events]
    for kind in ("run_started", "ticks", "run_finished"):
        assert kinds.count(kind) == len(OBSERVED), kind
    metrics = json.loads(
        (tmp_path / "serial" / "metrics.json").read_text()
    )["metrics"]
    assert metrics["counters"]["controller.ticks"] == sum(
        len(event["columns"]["time_s"])
        for event in events
        if event["kind"] == "ticks"
    )
    assert metrics["gauges"]["run.duration_s"] > 0
    text = _body(render_report(tmp_path / "serial"))
    assert "p-state residency" in text
    assert "Eq. 2 residuals (" in text
    assert text == _body(render_report(tmp_path / "parallel"))


# -- outcomes frozen on the lock-step multicore loop ---------------------------

#: sha256 of ``multicore_scaling.render(run(ExperimentConfig(scale=0.1,
#: seed=0)))``: its 1-core rows run a 1-thread package and its Part B
#: grid runs 1 thread on 2 cores (an idle lane).
MULTICORE_SCALING_SHA256 = (
    "9af4631e5baab8480d6844070c4eb7fdbf313ac89026f073ba1bb5e351d46300"
)

#: sha256 of ``examples/threads_frequency_sweep.py``'s stdout.
SWEEP_EXAMPLE_SHA256 = (
    "cffd39fdcabea1a251b332e6dd5e896640523b81b946b6a88aa3aa0f38dcf5cf"
)

ROOT = Path(__file__).resolve().parents[2]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_multicore_scaling_report_is_frozen():
    data = multicore_scaling.run(ExperimentConfig(scale=0.1, seed=0))
    assert _sha256(multicore_scaling.render(data)) == MULTICORE_SCALING_SHA256


def test_threads_frequency_sweep_example_is_frozen():
    out = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "threads_frequency_sweep.py")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert _sha256(out.stdout) == SWEEP_EXAMPLE_SHA256


@pytest.mark.xfail(strict=True, reason=(
    "the package keeps deciding from core 0's counters after core 0 "
    "finishes; a fix moves pm-mixed's pinned digests (ROADMAP: "
    "\"Decide from a running core\")"
))
def test_no_decision_reads_a_finished_lead_core():
    """A two-core PowerSave cell decides on counters that counted: no
    tick in which a core still ran hands the governor all-zero rates.

    gzip's shards finish a tick apart; in the last tick only core 1
    runs, and the package still decides from core 0's empty interval.
    """
    result = execute_cell(
        RunCell("gzip", GovernorSpec.ps(0.8), threads=2),
        ExperimentConfig(scale=1.0, seed=0, keep_trace=True),
    )
    empty = [
        row.time_s for row in result.trace
        if row.instructions > 0 and not any(row.rates.values())
    ]
    assert empty == []
