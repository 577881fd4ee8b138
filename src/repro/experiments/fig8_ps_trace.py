"""Fig. 8: PowerSave on ammp with an 80% performance floor.

The paper's PS trace: during ammp's memory-bound regions PS drops the
frequency sharply (performance there barely depends on it) and restores
it in compute-bound regions, keeping overall performance above 80% of
peak.  The reproduction reports the frequency/power traces, the phase
residency, and the achieved performance vs the floor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import TextTable, format_series
from repro.core.controller import RunResult
from repro.exec import ExperimentConfig, GovernorSpec, RunCell, RunPlan
from repro.experiments.metrics import energy_savings, performance_reduction

#: The floor shown in the paper's figure.
FLOOR = 0.80


@dataclass(frozen=True)
class Fig8Result:
    """PS run, full-speed reference, and derived metrics."""

    powersave: RunResult
    fullspeed: RunResult

    @property
    def reduction(self) -> float:
        """Achieved performance reduction (must stay below 1 - floor)."""
        return performance_reduction(self.powersave, self.fullspeed)

    @property
    def savings(self) -> float:
        """Measured energy savings vs full speed."""
        return energy_savings(self.powersave, self.fullspeed)


def plan(config: ExperimentConfig | None = None) -> RunPlan:
    """ammp at 2000 MHz, then under PS at the floor."""
    return RunPlan(
        config=config or ExperimentConfig(scale=1.0, keep_trace=True),
        cells=(
            RunCell.fixed("ammp", 2000.0),
            RunCell(workload="ammp", governor=GovernorSpec.ps(FLOOR)),
        ),
    )


def summarize(config: ExperimentConfig, results) -> Fig8Result:
    """Fig. 8's two runs (full trace kept)."""
    fullspeed, powersave = results
    return Fig8Result(powersave=powersave, fullspeed=fullspeed)


def render(result: Fig8Result) -> str:
    """Summary plus downsampled traces."""
    table = TextTable(["metric", "value"])
    table.add_row("floor", FLOOR)
    table.add_row("performance reduction", result.reduction)
    table.add_row("energy savings", result.savings)
    table.add_row("PS time s", result.powersave.duration_s)
    table.add_row("full-speed time s", result.fullspeed.duration_s)
    residency = ", ".join(
        f"{freq:.0f}:{seconds:.2f}"
        for freq, seconds in sorted(result.powersave.residency_s.items())
    )
    table.add_row("residency (MHz: s)", residency)
    lines = [
        "Fig. 8 -- PowerSave on ammp with an 80% performance floor",
        table.render(),
    ]
    if result.powersave.trace:
        lines.append(
            format_series(
                [(r.time_s, r.frequency_mhz) for r in result.powersave.trace],
                "t", "MHz",
            )
        )
        lines.append(
            format_series(
                [
                    (r.time_s, r.measured_power_w)
                    for r in result.powersave.trace
                ],
                "t", "W",
            )
        )
    return "\n".join(lines)
