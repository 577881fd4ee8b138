"""Table II: the per-p-state DPC power model, re-derived.

Runs the paper's model-construction procedure -- characterize the 12
MS-Loops points at every p-state on the (simulated) rig, then fit
``P = alpha*DPC + beta`` per p-state minimizing absolute error -- and
compares the result against the published Table II coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import TextTable
from repro.core.models.power import LinearPowerModel, PAPER_TABLE_II
from repro.core.models.training import (
    TrainingPoint,
    collect_training_data,
    fit_power_model,
)
from repro.exec.cache import trained_power_model, training_points
from repro.exec.plan import ExperimentConfig
from repro.experiments.runner import no_cells
from repro.platform.machine import MachineConfig


@dataclass(frozen=True)
class Table2Result:
    """Fitted model, the training set, and per-coefficient deviations."""

    model: LinearPowerModel
    points: tuple[TrainingPoint, ...]

    def alpha_deviation(self, frequency_mhz: float) -> float:
        """Relative |alpha - paper| / paper at one p-state."""
        fitted = self.model.alpha(frequency_mhz)
        paper = PAPER_TABLE_II[frequency_mhz].alpha
        return abs(fitted - paper) / paper

    def beta_deviation(self, frequency_mhz: float) -> float:
        """Relative |beta - paper| / paper at one p-state."""
        fitted = self.model.beta(frequency_mhz)
        paper = PAPER_TABLE_II[frequency_mhz].beta
        return abs(fitted - paper) / paper

    @property
    def max_deviation(self) -> float:
        """Worst relative deviation across all coefficients."""
        return max(
            max(self.alpha_deviation(f), self.beta_deviation(f))
            for f in self.model.frequencies_mhz
        )


#: No cells: training runs the MS-Loops outside the cell path.
plan = no_cells


def summarize(config: ExperimentConfig, results) -> Table2Result:
    """Regenerate Table II by training on MS-Loops.

    On the default machine this is the training set every trained-model
    cell already uses, collected once per seed.
    """
    if config.machine == MachineConfig():
        return Table2Result(
            model=trained_power_model(config.seed),
            points=training_points(config.seed),
        )
    points = collect_training_data(config=config.machine_config())
    return Table2Result(model=fit_power_model(points), points=points)


def render(result: Table2Result) -> str:
    """Side-by-side fitted vs published coefficients."""
    table = TextTable(
        ["MHz", "alpha", "paper", "dev%", "beta", "paper", "dev%"]
    )
    for freq in result.model.frequencies_mhz:
        coefficient = result.model.coefficients(freq)
        paper = PAPER_TABLE_II[freq]
        table.add_row(
            f"{freq:.0f}",
            coefficient.alpha,
            paper.alpha,
            100 * result.alpha_deviation(freq),
            coefficient.beta,
            paper.beta,
            100 * result.beta_deviation(freq),
        )
    return (
        "Table II -- DPC power model per p-state (refit vs paper)\n"
        + table.render()
        + f"\nmax coefficient deviation: {100 * result.max_deviation:.1f}%"
    )
