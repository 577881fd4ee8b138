#!/usr/bin/env python3
"""Profile the monitor->estimate->control hot path.

Runs one governed cell under cProfile and prints the top functions by
cumulative time, with the loop's throughput in ticks/s.  Every run
takes the fused tick kernel (:func:`repro.core.blockloop.run_fast`):
the stock governors, ``energy-optimal`` and ``adaptive-pm``
(measured-power feedback) included, decide from its tables, while
``edp`` (EnergyDelayOptimizer, which rotates counter groups) runs its
hook mode, where the decision block calls the sampler, governor and
driver each tick.  ``--threads N`` splits the workload over an N-core
package, which the kernel steps as N lanes per tick; the package
decides in the same mode as one core.

Usage::

    PYTHONPATH=src python scripts/profile_tick.py [--workload ammp]
        [--governor pm|ps|dbs|fixed|adaptive-pm|energy-optimal|edp]
        [--threads 1] [--scale 16] [--top 20]
        [--out benchmarks/results/profile_tick.txt]

The archived reference run, ``--governor energy-optimal --threads 2``,
lives at ``benchmarks/results/profile_tick.txt``.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
import time

from repro.exec import ExperimentConfig, GovernorSpec, RunCell, execute_cell

SPECS = {
    "pm": lambda: GovernorSpec.pm(14.5, power_model="paper"),
    "ps": lambda: GovernorSpec.ps(0.8),
    "dbs": lambda: GovernorSpec.dbs(),
    "fixed": lambda: GovernorSpec.fixed(1400.0),
    "adaptive-pm": lambda: GovernorSpec.adaptive_pm(
        14.5, power_model="paper"
    ),
    "energy-optimal": lambda: GovernorSpec.energy_optimal(
        power_model="paper"
    ),
    "edp": lambda: GovernorSpec.edp(power_model="paper"),
}


def _profile_once(cell, config, top):
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
    header = (
        f"== {ticks} ticks in {wall:.3f} s under cProfile "
        f"({ticks / wall:,.0f} ticks/s) ==\n"
    )
    return header + buffer.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="ammp")
    parser.add_argument("--governor", choices=sorted(SPECS), default="pm")
    parser.add_argument("--threads", type=int, default=1,
                        help="cores of the package the workload is split "
                        "over (default: 1, a single-core machine)")
    parser.add_argument("--scale", type=float, default=16.0)
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument("--out", default=None,
                        help="also write the report to this file")
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads must be at least 1, got {args.threads}")

    config = ExperimentConfig(scale=args.scale, seed=0)
    cell = RunCell(
        workload=args.workload, governor=SPECS[args.governor](),
        threads=args.threads,
    )
    report = (
        f"profile_tick: workload={args.workload} governor={args.governor} "
        f"threads={args.threads} scale={args.scale}\n\n"
        + _profile_once(cell, config, args.top)
    )
    print(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
