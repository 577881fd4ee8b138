"""Fig. 2: workload-specific performance impact across three p-states.

The paper's second motivating figure: swim (memory-bound) barely changes
between 1600/1800/2000 MHz, sixtrack (core-bound) scales linearly, and
gap sits in between.  This experiment runs the three benchmarks at the
three p-states and reports performance normalized to the 1600 MHz run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.analysis.report import TextTable
from repro.exec import ExperimentConfig, RunCell, RunPlan

#: The paper's three exemplars and three p-states.
BENCHMARKS: Tuple[str, ...] = ("swim", "gap", "sixtrack")
FREQUENCIES_MHZ: Tuple[float, ...] = (1600.0, 1800.0, 2000.0)


@dataclass(frozen=True)
class Fig2Result:
    """Normalized performance per (benchmark, frequency).

    ``normalized[name][freq]`` is throughput relative to 1600 MHz; a
    perfectly core-bound workload shows 1.0 / 1.125 / 1.25.
    """

    normalized: Dict[str, Dict[float, float]]

    def frequency_sensitivity(self, name: str) -> float:
        """Speedup from 1600 to 2000 MHz (1.0 = flat, 1.25 = linear)."""
        return self.normalized[name][2000.0]


def plan(config: ExperimentConfig | None = None) -> RunPlan:
    """Each exemplar pinned at each of the three p-states."""
    return RunPlan(
        config=config or ExperimentConfig(scale=0.25),
        cells=tuple(
            RunCell.fixed(name, freq)
            for name in BENCHMARKS
            for freq in FREQUENCIES_MHZ
        ),
    )


def summarize(config: ExperimentConfig, results) -> Fig2Result:
    """Regenerate Fig. 2's data."""
    runs = iter(results)
    normalized: Dict[str, Dict[float, float]] = {}
    for name in BENCHMARKS:
        durations = {
            freq: next(runs).duration_s for freq in FREQUENCIES_MHZ
        }
        base = durations[1600.0]
        normalized[name] = {
            freq: base / duration for freq, duration in durations.items()
        }
    return Fig2Result(normalized=normalized)


def render(result: Fig2Result) -> str:
    """Text rendering of the normalized-performance matrix."""
    table = TextTable(["benchmark", *(f"{f:.0f} MHz" for f in FREQUENCIES_MHZ)])
    for name in BENCHMARKS:
        table.add_row(
            name, *(result.normalized[name][f] for f in FREQUENCIES_MHZ)
        )
    note = (
        "\n(linear scaling would read 1.000 / 1.125 / 1.250; "
        "paper: swim flat, gap in between, sixtrack linear)"
    )
    return (
        "Fig. 2 -- performance across p-states (normalized to 1600 MHz)\n"
        + table.render()
        + note
    )
