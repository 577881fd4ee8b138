"""Fig. 1: power variation across SPEC CPU2000 at 2 GHz.

The paper's motivating observation: at a fixed p-state and 100% load,
measured power differs widely across workloads -- "the range spans over
35% of the chip's peak operating power" -- because clock gating makes
power activity-dependent.  This experiment runs every SPEC model at
2000 MHz, summarizes the 10 ms measured-power samples per workload, and
reports the suite-wide spread relative to the peak observed sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analysis.report import TextTable
from repro.analysis.stats import SeriesSummary, summarize as summarize_series
from repro.exec.plan import ExperimentConfig, RunPlan
from repro.experiments.suite import suite_fixed, take_suite


@dataclass(frozen=True)
class Fig1Result:
    """Per-workload power summaries and the suite-wide spread."""

    summaries: Dict[str, SeriesSummary]
    peak_power_w: float
    spread_w: float

    @property
    def spread_fraction_of_peak(self) -> float:
        """The paper's headline: spread / peak operating power (>0.35)."""
        return self.spread_w / self.peak_power_w


def plan(config: ExperimentConfig | None = None) -> RunPlan:
    """The suite at 2000 MHz."""
    return RunPlan(
        config=config or ExperimentConfig(scale=0.25),
        cells=tuple(suite_fixed(2000.0)),
    )


def summarize(config: ExperimentConfig, results) -> Fig1Result:
    """Regenerate Fig. 1's data."""
    summaries = {
        name: summarize_series(result.samples.watts)
        for name, result in take_suite(iter(results)).items()
    }
    mean_powers = [s.mean for s in summaries.values()]
    peak = max(s.maximum for s in summaries.values())
    spread = max(mean_powers) - min(mean_powers)
    return Fig1Result(
        summaries=summaries, peak_power_w=peak, spread_w=spread
    )


def render(result: Fig1Result) -> str:
    """Text rendering: per-workload mean/min/max power at 2 GHz."""
    table = TextTable(
        ["benchmark", "mean W", "min W", "max W", "p95 W"]
    )
    ordered = sorted(
        result.summaries.items(), key=lambda kv: kv[1].mean, reverse=True
    )
    for name, summary in ordered:
        table.add_row(
            name, summary.mean, summary.minimum, summary.maximum, summary.p95
        )
    footer = (
        f"\nmean-power spread: {result.spread_w:.2f} W "
        f"({100 * result.spread_fraction_of_peak:.1f}% of the "
        f"{result.peak_power_w:.2f} W peak sample; paper: >35%)"
    )
    return "Fig. 1 -- SPEC CPU2000 power at 2 GHz\n" + table.render() + footer
