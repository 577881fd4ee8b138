"""Fig. 7: per-benchmark PM speedup over static clocking at 17.5 W.

At the 17.5 W limit static clocking fixes 1800 MHz; the maximum possible
performance is unconstrained 2000 MHz (which would violate the limit for
some workloads).  PM alternates 1800/2000 as workload behaviour permits.
The paper reports PM "reaching 86% of maximum performance based on the
total execution time of the full benchmark suite", with:

* memory-bound workloads (swim end) gaining ~nothing from 2000 MHz;
* core-bound, lower-power workloads (sixtrack end) gaining fully;
* crafty/perlbmk (and to a lesser degree bzip2) held back by their own
  high power despite being core-bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.analysis.report import TextTable
from repro.core.governors.static import static_frequency_for_limit
from repro.exec import ExperimentConfig, GovernorSpec, RunPlan
from repro.exec.cache import worst_case_power_table
from repro.experiments.metrics import achieved_speedup_fraction, speedup
from repro.experiments.suite import suite_fixed, suite_governed, take_suite

#: The limit the paper's Fig. 7 is drawn at.
LIMIT_W = 17.5


@dataclass(frozen=True)
class Fig7Result:
    """Per-benchmark speedups and the suite-level achieved fraction."""

    #: PM speedup over static clocking, per benchmark.
    pm_speedup: Mapping[str, float]
    #: Unconstrained (2000 MHz) speedup over static, per benchmark.
    unconstrained_speedup: Mapping[str, float]
    #: Fraction of the possible suite speedup PM captured (paper: 0.86).
    achieved_fraction: float
    static_frequency_mhz: float

    def sorted_names(self) -> tuple[str, ...]:
        """Benchmarks in the paper's x-axis order: by unconstrained
        speedup ascending (swim-like left, sixtrack-like right)."""
        return tuple(
            sorted(
                self.unconstrained_speedup,
                key=lambda n: self.unconstrained_speedup[n],
            )
        )


def _static_frequency(config: ExperimentConfig) -> float:
    """Table IV's static frequency at :data:`LIMIT_W`."""
    return static_frequency_for_limit(
        LIMIT_W, worst_case_power_table(seed=config.seed)
    )


def plan(config: ExperimentConfig | None = None) -> RunPlan:
    """The suite at the static frequency, at 2000 MHz, and under PM."""
    config = config or ExperimentConfig(scale=0.25)
    return RunPlan(
        config=config,
        cells=(
            *suite_fixed(_static_frequency(config)),
            *suite_fixed(2000.0),
            *suite_governed(GovernorSpec.pm(LIMIT_W), config.runs),
        ),
    )


def summarize(config: ExperimentConfig, results) -> Fig7Result:
    """Fig. 7's bars at the 17.5 W limit."""
    runs = iter(results)
    static_runs = take_suite(runs)
    unconstrained_runs = take_suite(runs)
    pm_runs = take_suite(runs, config.runs)

    names = list(pm_runs)
    pm_speedups = {
        name: speedup(pm_runs[name], static_runs[name]) for name in names
    }
    unconstrained_speedups = {
        name: speedup(unconstrained_runs[name], static_runs[name])
        for name in names
    }
    fraction = achieved_speedup_fraction(
        [pm_runs[n] for n in names],
        [static_runs[n] for n in names],
        [unconstrained_runs[n] for n in names],
    )
    return Fig7Result(
        pm_speedup=pm_speedups,
        unconstrained_speedup=unconstrained_speedups,
        achieved_fraction=fraction,
        static_frequency_mhz=_static_frequency(config),
    )


def render(result: Fig7Result) -> str:
    """Bars as rows, sorted the paper's way."""
    table = TextTable(
        ["benchmark", "PM speedup", "2000 MHz speedup", "gap"]
    )
    for name in result.sorted_names():
        pm = result.pm_speedup[name]
        unconstrained = result.unconstrained_speedup[name]
        table.add_row(name, pm, unconstrained, unconstrained - pm)
    return (
        f"Fig. 7 -- speedup over static {result.static_frequency_mhz:.0f} MHz "
        f"at {LIMIT_W} W\n"
        + table.render()
        + (
            f"\nsuite: PM captured "
            f"{100 * result.achieved_fraction:.1f}% of the possible "
            "speedup (paper: 86%)"
        )
    )
