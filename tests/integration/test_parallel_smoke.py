"""CI parallel smoke: a multi-worker sweep end to end, CLI included.

Gated behind ``REPRO_PARALLEL_SMOKE=1`` (a dedicated CI matrix entry):
it runs a Fig. 9-sized sweep twice plus a real multi-process
``python -m repro`` invocation, which is slower than the unit suite.
The >= 2.5x speedup bar additionally requires >= 4 CPUs -- on smaller
hosts the smoke still proves bit-identity and crash-free fan-out.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from repro.checkpoint.digest import run_result_digest
from repro.exec import ExperimentConfig, GovernorSpec, RunPlan, open_session
from repro.experiments.suite import suite_names

pytestmark = pytest.mark.skipif(
    not os.environ.get("REPRO_PARALLEL_SMOKE"),
    reason="set REPRO_PARALLEL_SMOKE=1 to run the parallel smoke sweep",
)

ENV = dict(os.environ, PYTHONPATH="src")
WORKERS = 4


def _plan(scale: float) -> RunPlan:
    """The Fig. 9 campaign shape: suite x 4 floors x 3 reps."""
    config = ExperimentConfig(scale=scale, seed=0)
    return RunPlan.sweep(
        suite_names(),
        [GovernorSpec.ps(floor) for floor in (0.80, 0.60, 0.40, 0.20)],
        config,
        seeds=(0, 100, 200),
    )


def test_fig9_sized_sweep_parallel_speedup():
    """312 suite cells, serial vs 4 workers: identical and (with the
    CPUs to show it) >= 2.5x faster."""
    plan = _plan(scale=1.0)

    start = time.perf_counter()
    with open_session() as session:
        serial = session.run_plan(plan)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    with open_session(workers=WORKERS) as session:
        parallel = session.run_plan(plan)
    parallel_s = time.perf_counter() - start

    assert [run_result_digest(r) for r in parallel] == [
        run_result_digest(r) for r in serial
    ]
    assert session.last_runner.restarts == 0

    if (os.cpu_count() or 1) >= WORKERS:
        assert serial_s / parallel_s >= 2.5, (serial_s, parallel_s)


def test_cli_plan_parallel_round_trip(tmp_path):
    """The CLI path: serialize a plan, run it with --workers 4."""
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(_plan(scale=0.05).to_json())
    base = [sys.executable, "-m", "repro", "run", "--plan", str(plan_path)]

    serial = subprocess.run(
        base, capture_output=True, text=True, env=ENV,
        check=True, timeout=600,
    ).stdout
    parallel = subprocess.run(
        [*base, "--workers", str(WORKERS)], capture_output=True, text=True,
        env=ENV, check=True, timeout=600,
    ).stdout
    # Identical per-cell tables; only the header names the worker count.
    assert parallel.splitlines()[1:] == serial.splitlines()[1:]


def test_experiment_workers_telemetry_merge(tmp_path):
    """`experiment --workers` leaves one merged telemetry directory."""
    out = tmp_path / "telemetry"
    subprocess.run(
        [sys.executable, "-m", "repro", "experiment", "fig1",
         "--scale", "0.1", "--workers", "2", "--telemetry", str(out)],
        capture_output=True, text=True, env=ENV, check=True, timeout=600,
    )
    merged = json.loads((out / "metrics.json").read_text())
    assert merged["metrics"]["counters"]
    assert any(p.name.startswith("worker-") for p in out.iterdir())
