"""Fig. 6: suite performance vs power limit, dynamic vs static clocking.

For each of the eight power limits the suite runs under PM (dynamic
clocking) and at the Table IV static frequency; normalized performance
is total unconstrained time / total constrained time.  The paper's
claims checked here:

* dynamic clocking >= static clocking at every limit;
* the gap grows as the limit tightens (static must provision for the
  worst case; PM exploits per-workload slack);
* PM enforces the limit for every benchmark except galgel, which in the
  worst case spends ~10% of its runtime above the limit (13.5 W being
  the worst in the paper, §IV-A2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

from repro.analysis.report import TextTable
from repro.core.controller import RunResult
from repro.core.governors.static import static_frequency_for_limit
from repro.exec import ExperimentConfig, GovernorSpec, RunPlan
from repro.exec.cache import worst_case_power_table
from repro.experiments.metrics import suite_normalized_performance
from repro.experiments.suite import suite_fixed, suite_governed, take_suite
from repro.experiments.table4_static_freq import POWER_LIMITS_W


@dataclass(frozen=True)
class Fig6Result:
    """Normalized performance per limit plus violation accounting."""

    dynamic_performance: Mapping[float, float]
    static_performance: Mapping[float, float]
    #: (limit, benchmark) -> fraction of run time the 100 ms moving
    #: average exceeded the limit.
    violations: Mapping[Tuple[float, str], float]

    def worst_violation(self) -> Tuple[float, str, float]:
        """(limit, benchmark, fraction) of the worst violator."""
        (limit, name), fraction = max(
            self.violations.items(), key=lambda kv: kv[1]
        )
        return limit, name, fraction

    def violators(self, threshold: float = 0.02) -> tuple[str, ...]:
        """Benchmarks exceeding ``threshold`` violation at any limit."""
        names = {
            name
            for (_, name), fraction in self.violations.items()
            if fraction > threshold
        }
        return tuple(sorted(names))


def _static_frequencies(
    config: ExperimentConfig, limits: Sequence[float]
) -> Dict[float, float]:
    """Limit -> Table IV static frequency."""
    worst_case = worst_case_power_table(seed=config.seed)
    return {
        limit: static_frequency_for_limit(limit, worst_case)
        for limit in limits
    }


def plan(
    config: ExperimentConfig | None = None,
    limits: Sequence[float] = POWER_LIMITS_W,
) -> RunPlan:
    """The suite at 2000 MHz, at each distinct static frequency, and
    under PM at each limit."""
    config = config or ExperimentConfig(scale=0.25)
    cells = suite_fixed(2000.0)
    for freq in set(_static_frequencies(config, limits).values()):
        cells += suite_fixed(freq)
    for limit in limits:
        cells += suite_governed(GovernorSpec.pm(limit), config.runs)
    return RunPlan(config=config, cells=tuple(cells))


def summarize(
    config: ExperimentConfig,
    results,
    limits: Sequence[float] = POWER_LIMITS_W,
) -> Fig6Result:
    """Fig. 6 (plus the §IV-A2 violation analysis)."""
    runs = iter(results)
    unconstrained = take_suite(runs)
    static_freqs = _static_frequencies(config, limits)
    fixed_cache: Dict[float, Dict[str, RunResult]] = {
        freq: take_suite(runs) for freq in set(static_freqs.values())
    }

    dynamic_perf: Dict[float, float] = {}
    static_perf: Dict[float, float] = {}
    violations: Dict[Tuple[float, str], float] = {}
    for limit in limits:
        governed = take_suite(runs, config.runs)
        order = list(governed)
        dynamic_perf[limit] = suite_normalized_performance(
            [governed[n] for n in order], [unconstrained[n] for n in order]
        )
        static_runs = fixed_cache[static_freqs[limit]]
        static_perf[limit] = suite_normalized_performance(
            [static_runs[n] for n in order], [unconstrained[n] for n in order]
        )
        for name, result in governed.items():
            violations[(limit, name)] = result.violation_fraction(limit)

    return Fig6Result(
        dynamic_performance=dynamic_perf,
        static_performance=static_perf,
        violations=violations,
    )


def render(result: Fig6Result) -> str:
    """The Fig. 6 series plus the violation summary."""
    table = TextTable(["limit W", "PM dynamic", "static"])
    for limit in sorted(result.dynamic_performance, reverse=True):
        table.add_row(
            f"{limit:.1f}",
            result.dynamic_performance[limit],
            result.static_performance[limit],
        )
    worst_limit, worst_name, worst_fraction = result.worst_violation()
    violators = ", ".join(result.violators()) or "none"
    return (
        "Fig. 6 -- normalized performance vs power limit\n"
        + table.render()
        + f"\nbenchmarks with >2% violation time: {violators}"
        + (
            f"\nworst violator: {worst_name} at {worst_limit:.1f} W "
            f"({100 * worst_fraction:.1f}% of runtime; paper: galgel "
            "~10% at 13.5 W)"
        )
    )
