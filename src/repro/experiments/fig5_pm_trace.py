"""Fig. 5: PerformanceMaximizer controlling ammp.

The paper's trace figure: ammp runs to completion unconstrained
(2 GHz) and under PM with 14.5 W and 10.5 W limits; frequency visibly
modulates with the workload's compute/memory phase alternation while
power stays under the limit.

This experiment reproduces the three runs with full traces and reports,
per run: completion time, mean power, p-state residency, and the
100 ms-window limit-violation fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.analysis.report import TextTable, format_series
from repro.core.controller import RunResult
from repro.exec import ExperimentConfig, GovernorSpec, RunCell, RunPlan

#: The two power limits shown in the paper's figure.
LIMITS_W = (14.5, 10.5)


@dataclass(frozen=True)
class Fig5Result:
    """Unconstrained run plus one PM run per limit."""

    unconstrained: RunResult
    limited: Mapping[float, RunResult]

    def violation_fraction(self, limit_w: float) -> float:
        """100 ms-window violation fraction for one PM run."""
        return self.limited[limit_w].violation_fraction(limit_w)


def plan(config: ExperimentConfig | None = None) -> RunPlan:
    """ammp at 2000 MHz, then under PM at each limit."""
    return RunPlan(
        config=config or ExperimentConfig(scale=1.0, keep_trace=True),
        cells=(
            RunCell.fixed("ammp", 2000.0),
            *(
                RunCell(workload="ammp", governor=GovernorSpec.pm(limit))
                for limit in LIMITS_W
            ),
        ),
    )


def summarize(config: ExperimentConfig, results) -> Fig5Result:
    """Fig. 5's three ammp runs (full traces kept)."""
    unconstrained, *limited = results
    return Fig5Result(
        unconstrained=unconstrained, limited=dict(zip(LIMITS_W, limited))
    )


def render(result: Fig5Result) -> str:
    """Run summaries plus downsampled frequency/power traces."""
    table = TextTable(
        ["run", "time s", "mean W", "viol frac", "residency (MHz: s)"]
    )
    runs = [("unconstrained 2000 MHz", result.unconstrained, None)]
    runs += [
        (f"PM @ {limit:.1f} W", result.limited[limit], limit)
        for limit in LIMITS_W
    ]
    for label, run_result, limit in runs:
        residency = ", ".join(
            f"{freq:.0f}:{seconds:.2f}"
            for freq, seconds in sorted(run_result.residency_s.items())
        )
        violation = (
            run_result.violation_fraction(limit) if limit is not None else 0.0
        )
        table.add_row(
            label, run_result.duration_s, run_result.mean_power_w,
            violation, residency,
        )
    lines = ["Fig. 5 -- PM on ammp (unconstrained vs 14.5 W vs 10.5 W)",
             table.render()]
    for label, run_result, _ in runs:
        if run_result.trace:
            freq_series = [
                (row.time_s, row.frequency_mhz) for row in run_result.trace
            ]
            power_series = [
                (row.time_s, row.measured_power_w) for row in run_result.trace
            ]
            lines.append(f"\n{label}:")
            lines.append(format_series(freq_series, "t", "MHz"))
            lines.append(format_series(power_series, "t", "W"))
    return "\n".join(lines)
