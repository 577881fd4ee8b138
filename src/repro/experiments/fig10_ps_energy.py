"""Fig. 10: per-workload energy savings by PS floor setting.

Workloads are sorted by the maximum benefit available from DVFS (the
600 MHz run); the paper's shape: memory-bound workloads (swim, equake,
mcf, lucas, applu) on the high-savings side, core-bound ones (eon,
sixtrack, crafty, twolf, mesa) on the low side, with the ALLBENCH
aggregate separating above- from below-average savers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.report import TextTable
from repro.core.models.performance import PerformanceModel
from repro.exec.plan import ExperimentConfig
from repro.experiments import fig9_ps_suite
from repro.experiments.metrics import energy_savings, suite_energy_savings
from repro.experiments.suite import take_suite
from repro.experiments.fig9_ps_suite import FLOORS


@dataclass(frozen=True)
class Fig10Result:
    """savings[floor][benchmark], the 600 MHz bound, and ALLBENCH."""

    savings: Mapping[float, Mapping[str, float]]
    bound_savings: Mapping[str, float]
    allbench: Mapping[float, float]

    def sorted_names(self) -> tuple[str, ...]:
        """Benchmarks by descending 600 MHz savings (paper's x order)."""
        return tuple(
            sorted(
                self.bound_savings,
                key=lambda n: self.bound_savings[n],
                reverse=True,
            )
        )


#: Fig. 10 is drawn from Fig. 9's cells.
plan = fig9_ps_suite.plan


def summarize(
    config: ExperimentConfig,
    results,
    floors: Sequence[float] = FLOORS,
    model: PerformanceModel | None = None,
) -> Fig10Result:
    """Fig. 10's per-workload savings."""
    runs = iter(results)
    fullspeed = take_suite(runs)
    slowest = take_suite(runs)
    order = list(fullspeed)

    savings: dict[float, dict[str, float]] = {}
    allbench: dict[float, float] = {}
    for floor in floors:
        governed = take_suite(runs, config.runs)
        savings[floor] = {
            name: energy_savings(governed[name], fullspeed[name])
            for name in order
        }
        allbench[floor] = suite_energy_savings(
            [governed[n] for n in order], [fullspeed[n] for n in order]
        )
    bound = {
        name: energy_savings(slowest[name], fullspeed[name]) for name in order
    }
    return Fig10Result(savings=savings, bound_savings=bound, allbench=allbench)


def render(result: Fig10Result) -> str:
    """Per-benchmark savings matrix, paper-sorted."""
    floors = sorted(result.savings, reverse=True)
    table = TextTable(
        ["benchmark", *(f"{100 * f:.0f}%" for f in floors), "600MHz"]
    )
    for name in result.sorted_names():
        table.add_row(
            name,
            *(result.savings[floor][name] for floor in floors),
            result.bound_savings[name],
        )
    table.add_row(
        "ALLBENCH",
        *(result.allbench[floor] for floor in floors),
        sum(result.bound_savings.values()) / len(result.bound_savings),
    )
    return (
        "Fig. 10 -- energy savings per workload by PS floor\n" + table.render()
    )
