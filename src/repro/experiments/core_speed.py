"""Core loop throughput: the fused tick kernel vs the scalar loop.

Not a paper figure -- an engineering experiment for the reproduction
itself.  Campaign-scale sweeps (Fig. 9's 26 benchmarks x 4 floors x 3
seeds) are bounded by how fast the monitor->estimate->control loop
ticks, so this experiment measures exactly that: simulated control
ticks per wall-clock second under the historical scalar loop and under
the fused kernel (:mod:`repro.core.blockloop`), on the same cell, with
a digest check that the two produced bit-identical results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.analysis.report import TextTable
from repro.checkpoint.digest import run_result_digest
from repro.core import blockloop
from repro.exec import (
    ExperimentConfig,
    GovernorSpec,
    RunCell,
    RunPlan,
    execute_cell,
    open_session,
)

#: The measured cell: PM on ammp -- the paper's trace workload, with
#: the governor archetype whose decide path is the most expensive.
WORKLOAD = "ammp"
LIMIT_W = 14.5


@dataclass(frozen=True)
class CoreSpeedResult:
    """Tick throughput of both loop modes."""

    ticks: int
    scalar_ticks_per_s: float
    fast_ticks_per_s: float
    #: run_result_digest equality between the two modes (must be True).
    bit_identical: bool

    @property
    def speedup(self) -> float:
        return self.fast_ticks_per_s / self.scalar_ticks_per_s


def _cell() -> RunCell:
    return RunCell(
        workload=WORKLOAD,
        governor=GovernorSpec.pm(LIMIT_W, power_model="paper"),
    )


def _timed(config: ExperimentConfig, repeats: int = 3):
    """Best-of-N wall time for one cell; returns (result, seconds)."""
    cell = _cell()
    result = execute_cell(cell, config)  # warm model/template caches
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = execute_cell(cell, config)
        best = min(best, time.perf_counter() - start)
    return result, best


def run(
    config: ExperimentConfig | None = None, repeats: int = 3
) -> CoreSpeedResult:
    """Measure scalar vs fused tick throughput on one PM cell."""
    config = config or ExperimentConfig(scale=16.0, seed=0)
    saved = blockloop.FAST_LOOP
    try:
        blockloop.FAST_LOOP = False
        scalar_result, scalar_s = _timed(config, repeats)
        ticks = round(scalar_result.duration_s / 0.01)

        blockloop.FAST_LOOP = True
        fast_result, fast_s = _timed(config, repeats)
        identical = run_result_digest(fast_result) == run_result_digest(
            scalar_result
        )
    finally:
        blockloop.FAST_LOOP = saved
    return CoreSpeedResult(
        ticks=ticks,
        scalar_ticks_per_s=ticks / scalar_s,
        fast_ticks_per_s=ticks / fast_s,
        bit_identical=identical,
    )


# -- campaign-scale measurement (the BENCH_core_speed.json record) ----------


def campaign(
    scale: float = 1.0, seeds: tuple[int, ...] = (0, 100, 200)
) -> dict[str, Any]:
    """Scalar vs fused tick throughput on the Fig. 9 campaign.

    Runs the paper's Fig. 9 sweep shape -- the SPEC suite at the four
    PS floors, three median-protocol reps each -- serially under both
    loop modes, with ``controller._run_loop`` wrapped so only the
    monitor->estimate->control loop is on the clock (workload
    generation, model training and digesting are identical in both
    modes and excluded from the throughput ratio).  Per-cell digests
    must match bit for bit.
    """
    from repro.core import controller
    from repro.experiments.fig9_ps_suite import FLOORS
    from repro.experiments.runner import spec_suite

    config = ExperimentConfig(scale=scale, seed=0)
    plan = RunPlan.sweep(
        (w.name for w in spec_suite(config)),
        [GovernorSpec.ps(floor) for floor in FLOORS],
        config,
        seeds=seeds,
    )

    def timed_pass(fast: bool):
        blockloop.FAST_LOOP = fast
        loop_s = [0.0]
        original = controller._run_loop

        def timed(st, tel):
            start = time.perf_counter()
            try:
                return original(st, tel)
            finally:
                loop_s[0] += time.perf_counter() - start

        controller._run_loop = timed
        try:
            wall = time.perf_counter()
            with open_session() as session:
                results = session.run_plan(plan)
            wall = time.perf_counter() - wall
        finally:
            controller._run_loop = original
        digests = [run_result_digest(r) for r in results]
        ticks = sum(round(r.duration_s / 0.01) for r in results)
        return digests, ticks, loop_s[0], wall

    saved = blockloop.FAST_LOOP
    try:
        s_digests, ticks, s_loop, s_wall = timed_pass(fast=False)
        f_digests, _, f_loop, f_wall = timed_pass(fast=True)
    finally:
        blockloop.FAST_LOOP = saved
    return {
        "cells": len(plan),
        "scale": scale,
        "ticks": ticks,
        "scalar_loop_s": round(s_loop, 3),
        "fast_loop_s": round(f_loop, 3),
        "scalar_wall_s": round(s_wall, 3),
        "fast_wall_s": round(f_wall, 3),
        "scalar_ticks_per_s": round(ticks / s_loop),
        "fast_ticks_per_s": round(ticks / f_loop),
        "speedup": round(s_loop / f_loop, 2),
        "wall_speedup": round(s_wall / f_wall, 2),
        "bit_identical": f_digests == s_digests,
    }


def render(result: CoreSpeedResult) -> str:
    """Throughput summary of both loop modes."""
    table = TextTable(["loop", "ticks/s"])
    table.add_row("scalar (per-tick)", round(result.scalar_ticks_per_s))
    table.add_row("fused", round(result.fast_ticks_per_s))
    verdict = (
        "digests bit-identical"
        if result.bit_identical
        else "DIGEST MISMATCH -- fused loop is broken"
    )
    return (
        f"Core loop throughput -- PM on {WORKLOAD} ({result.ticks} ticks)\n"
        + table.render()
        + f"\nspeedup: {result.speedup:.1f}x ({verdict})"
    )
