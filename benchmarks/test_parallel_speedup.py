"""Benchmark: parallel engine speedup on a Fig. 9-sized campaign.

Runs the full Fig. 9 campaign shape -- the 26-workload SPEC suite at
the paper's four PS floors, three median-protocol reps each (312
cells) -- serially and through a 4-worker pool, demands bit-identical
per-cell digests, and archives both wall-clock numbers as
``BENCH_parallel.json``.  The >= 2.5x speedup bar only applies on
hosts with >= 4 CPUs *and* ``REPRO_PARALLEL_SMOKE=1`` (a single-core
container pays process overhead for no parallelism; the numbers are
still recorded there, honestly labelled).
"""

import json
import os
import time

from conftest import bench_scale, publish

from repro.checkpoint.digest import run_result_digest
from repro.exec import ExperimentConfig, GovernorSpec, RunPlan, open_session
from repro.experiments.fig9_ps_suite import FLOORS
from repro.experiments.suite import suite_names

WORKERS = 4


def _sweep_plan() -> RunPlan:
    config = ExperimentConfig(scale=bench_scale(1.0), seed=0)
    return RunPlan.sweep(
        suite_names(),
        [GovernorSpec.ps(floor) for floor in FLOORS],
        config,
        seeds=(0, 100, 200),  # the median protocol's per-rep offsets
    )


def _timed_run(plan: RunPlan, workers: int):
    start = time.perf_counter()
    with open_session(workers=workers) as session:
        results = session.run_plan(plan)
    return time.perf_counter() - start, [
        run_result_digest(r) for r in results
    ]


def test_parallel_speedup(benchmark, results_dir):
    plan = _sweep_plan()
    serial_s, serial_digests = _timed_run(plan, workers=0)
    parallel_s, parallel_digests = benchmark.pedantic(
        lambda: _timed_run(plan, workers=WORKERS), rounds=1, iterations=1
    )

    assert parallel_digests == serial_digests  # bit-identical, always

    cpus = os.cpu_count() or 1
    speedup = serial_s / parallel_s if parallel_s else 0.0
    record = {
        "cells": len(plan),
        "scale": plan.config.scale,
        "workers": WORKERS,
        "cpus": cpus,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(speedup, 3),
        "bit_identical": parallel_digests == serial_digests,
    }
    (results_dir / "BENCH_parallel.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    publish(
        results_dir,
        "parallel_speedup",
        "\n".join(f"{key:14} {value}" for key, value in record.items()),
    )

    if os.environ.get("REPRO_PARALLEL_SMOKE") and cpus >= WORKERS:
        assert speedup >= 2.5, record
