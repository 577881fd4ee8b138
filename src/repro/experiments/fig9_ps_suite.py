"""Fig. 9: suite performance reduction and energy savings vs PS floor.

PS runs the full suite at floors 80/60/40/20%; the paper's checks:

* floors are respected at the suite level (e.g. at the 60% floor the
  loss is 30.8%, under the allowed 40%);
* the headline trade-off: ~19.2% energy savings for ~10% performance
  reduction at the 80% floor;
* the 600 MHz sweep bounds the achievable savings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

from repro.analysis.report import TextTable
from repro.core.models.performance import PerformanceModel
from repro.exec.plan import ExperimentConfig, GovernorSpec, RunCell, RunPlan
from repro.experiments.metrics import (
    suite_energy_savings,
    suite_performance_reduction,
)
from repro.experiments.suite import suite_fixed, suite_governed, take_suite

#: The paper's four floors.
FLOORS: Tuple[float, ...] = (0.80, 0.60, 0.40, 0.20)


@dataclass(frozen=True)
class Fig9Result:
    """Suite reduction/savings per floor, plus the 600 MHz bound."""

    reduction: Mapping[float, float]
    savings: Mapping[float, float]
    bound_reduction: float
    bound_savings: float

    def floor_respected(self, floor: float) -> bool:
        """Whether suite-level loss stayed within the allowed budget."""
        return self.reduction[floor] <= (1.0 - floor) + 1e-9


def ps_sweep(
    floors: Sequence[float], runs: int, model: PerformanceModel | None = None
) -> List[RunCell]:
    """The suite under PS at each floor (default: the 0.81 exponent)."""
    model = model or PerformanceModel.paper_primary()
    cells: List[RunCell] = []
    for floor in floors:
        cells += suite_governed(
            GovernorSpec.ps(floor, performance_model=model), runs
        )
    return cells


def plan(
    config: ExperimentConfig | None = None,
    floors: Sequence[float] = FLOORS,
    model: PerformanceModel | None = None,
) -> RunPlan:
    """The suite at 2000 and 600 MHz, then under PS at each floor.

    Figs. 10 and 11 plan these cells too, so a report runs them once.
    """
    config = config or ExperimentConfig(scale=0.25)
    return RunPlan(
        config=config,
        cells=(
            *suite_fixed(2000.0),
            *suite_fixed(600.0),
            *ps_sweep(floors, config.runs, model),
        ),
    )


def summarize(
    config: ExperimentConfig,
    results,
    floors: Sequence[float] = FLOORS,
    model: PerformanceModel | None = None,
) -> Fig9Result:
    """Fig. 9 (optionally with the 0.59-exponent model)."""
    runs = iter(results)
    fullspeed = take_suite(runs)
    slowest = take_suite(runs)
    order = list(fullspeed)

    reduction: dict[float, float] = {}
    savings: dict[float, float] = {}
    for floor in floors:
        governed = take_suite(runs, config.runs)
        reduction[floor] = suite_performance_reduction(
            [governed[n] for n in order], [fullspeed[n] for n in order]
        )
        savings[floor] = suite_energy_savings(
            [governed[n] for n in order], [fullspeed[n] for n in order]
        )
    return Fig9Result(
        reduction=reduction,
        savings=savings,
        bound_reduction=suite_performance_reduction(
            [slowest[n] for n in order], [fullspeed[n] for n in order]
        ),
        bound_savings=suite_energy_savings(
            [slowest[n] for n in order], [fullspeed[n] for n in order]
        ),
    )


def render(result: Fig9Result) -> str:
    """Reduction/savings rows per floor plus the 600 MHz bound."""
    table = TextTable(
        ["floor", "allowed loss", "perf reduction", "energy savings", "ok"]
    )
    for floor in sorted(result.reduction, reverse=True):
        table.add_row(
            f"{100 * floor:.0f}%",
            1.0 - floor,
            result.reduction[floor],
            result.savings[floor],
            "yes" if result.floor_respected(floor) else "VIOLATED",
        )
    table.add_row(
        "600 MHz", "-", result.bound_reduction, result.bound_savings, "-"
    )
    return (
        "Fig. 9 -- suite performance reduction & energy savings vs PS floor\n"
        + table.render()
        + "\n(paper: 19.2% savings at ~10% reduction for the 80% floor; "
        "30.8% loss at the 60% floor)"
    )
