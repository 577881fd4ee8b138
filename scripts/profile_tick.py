#!/usr/bin/env python3
"""Profile the monitor->estimate->control hot path.

Runs one governed cell under cProfile in both loop modes and prints the
top functions by cumulative time -- the evidence base for the fused
tick kernel (:mod:`repro.core.blockloop`).  The scalar profile shows
the per-tick overhead spread across ``Machine.step`` /
``CounterSampler.sample`` / ``governor.decide``; the fast profile shows
the same work fused into ``blockloop.run_fast``.

Usage::

    PYTHONPATH=src python scripts/profile_tick.py [--workload ammp]
        [--governor pm|ps|dbs|fixed] [--scale 16] [--top 20]
        [--out benchmarks/results/profile_tick.txt]

The archived reference run lives at
``benchmarks/results/profile_tick.txt``.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
import time

from repro.core import blockloop
from repro.exec import ExperimentConfig, GovernorSpec, RunCell, execute_cell

SPECS = {
    "pm": lambda: GovernorSpec.pm(14.5, power_model="paper"),
    "ps": lambda: GovernorSpec.ps(0.8),
    "dbs": lambda: GovernorSpec.dbs(),
    "fixed": lambda: GovernorSpec.fixed(1400.0),
}


def _profile_once(cell, config, fast, top):
    blockloop.FAST_LOOP = fast
    execute_cell(cell, config)  # warm caches: models, templates, registry
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = execute_cell(cell, config)
    profiler.disable()
    wall = time.perf_counter() - start
    ticks = round(result.duration_s / 0.01)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    mode = "fast (fused kernel)" if fast else "scalar (per-tick loop)"
    header = (
        f"== {mode}: {ticks} ticks in {wall:.3f} s "
        f"({ticks / wall:,.0f} ticks/s) ==\n"
    )
    return header + buffer.getvalue(), ticks / wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="ammp")
    parser.add_argument("--governor", choices=sorted(SPECS), default="pm")
    parser.add_argument("--scale", type=float, default=16.0)
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument("--out", default=None,
                        help="also write the report to this file")
    args = parser.parse_args(argv)

    config = ExperimentConfig(scale=args.scale, seed=0)
    cell = RunCell(
        workload=args.workload, governor=SPECS[args.governor]()
    )

    sections = [
        f"profile_tick: workload={args.workload} governor={args.governor} "
        f"scale={args.scale}\n"
    ]
    rates = {}
    for fast in (False, True):
        text, rate = _profile_once(cell, config, fast, args.top)
        sections.append(text)
        rates[fast] = rate
    sections.append(
        f"speedup: {rates[True] / rates[False]:.1f}x "
        f"({rates[False]:,.0f} -> {rates[True]:,.0f} ticks/s)\n"
    )
    report = "\n".join(sections)
    print(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
