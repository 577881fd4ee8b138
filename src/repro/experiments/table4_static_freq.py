"""Table IV: power-limit-determined static frequencies.

For each of the paper's eight power limits (17.5 W down to 10.5 W in
1 W steps), static clocking picks the highest frequency whose worst-case
(FMA-256KB) power fits the limit.  The reproduction must preserve the
paper's crossovers exactly: 17.5-15.5 -> 1800, 14.5-12.5 -> 1600,
11.5-10.5 -> 1400.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

from repro.analysis.report import TextTable
from repro.core.governors.static import static_frequency_for_limit
from repro.exec import ExperimentConfig
from repro.exec.cache import worst_case_power_table
from repro.experiments.runner import no_cells

#: The paper's eight power limits (watts).
POWER_LIMITS_W: Tuple[float, ...] = (
    17.5, 16.5, 15.5, 14.5, 13.5, 12.5, 11.5, 10.5,
)

#: The paper's Table IV mapping.
PAPER_TABLE_IV: Mapping[float, float] = {
    17.5: 1800.0,
    16.5: 1800.0,
    15.5: 1800.0,
    14.5: 1600.0,
    13.5: 1600.0,
    12.5: 1600.0,
    11.5: 1400.0,
    10.5: 1400.0,
}


@dataclass(frozen=True)
class Table4Result:
    """Limit -> static frequency, from the measured worst-case table."""

    static_mhz: Mapping[float, float]
    worst_case_w: Mapping[float, float]

    @property
    def matches_paper(self) -> bool:
        """True when every crossover matches the published Table IV."""
        return all(
            self.static_mhz[limit] == PAPER_TABLE_IV[limit]
            for limit in POWER_LIMITS_W
        )


#: No cells: the worst-case table is measured on its own.
plan = no_cells


def summarize(config: ExperimentConfig, results) -> Table4Result:
    """Derive Table IV from the measured Table III."""
    worst = worst_case_power_table(seed=config.seed)
    static = {
        limit: static_frequency_for_limit(limit, worst)
        for limit in POWER_LIMITS_W
    }
    return Table4Result(static_mhz=static, worst_case_w=worst)


def render(result: Table4Result) -> str:
    """Limit -> frequency table with the paper's column alongside."""
    table = TextTable(["limit W", "static MHz", "paper MHz"])
    for limit in POWER_LIMITS_W:
        table.add_row(
            f"{limit:.1f}",
            f"{result.static_mhz[limit]:.0f}",
            f"{PAPER_TABLE_IV[limit]:.0f}",
        )
    verdict = "all crossovers match" if result.matches_paper else "MISMATCH"
    return (
        "Table IV -- power-limit-determined static frequencies\n"
        + table.render()
        + f"\n{verdict}"
    )
