"""Table III: measured power vs frequency for the worst-case workload.

The L2-resident FMA loop is the highest-power MS-Loop; its per-p-state
measured power is the provisioning basis for static clocking.  This
experiment measures it on the simulated rig and compares against the
paper's Table III.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.analysis.report import TextTable
from repro.exec import ExperimentConfig, RunCell, RunPlan
from repro.workloads.microbenchmarks import worst_case_workload

#: The paper's Table III (FMA-256KB measured power, watts).
PAPER_TABLE_III: Mapping[float, float] = {
    600.0: 3.86,
    800.0: 5.21,
    1000.0: 6.56,
    1200.0: 8.16,
    1400.0: 10.16,
    1600.0: 12.46,
    1800.0: 15.29,
    2000.0: 17.78,
}


@dataclass(frozen=True)
class Table3Result:
    """Measured worst-case power per frequency."""

    measured_w: Mapping[float, float]

    def deviation(self, frequency_mhz: float) -> float:
        """Relative |measured - paper| / paper at one frequency."""
        paper = PAPER_TABLE_III[frequency_mhz]
        return abs(self.measured_w[frequency_mhz] - paper) / paper


def plan(config: ExperimentConfig | None = None) -> RunPlan:
    """FMA-256KB pinned at every p-state."""
    config = config or ExperimentConfig(scale=3.0)
    workload = worst_case_workload()
    return RunPlan(
        config=config,
        cells=tuple(
            RunCell.fixed(workload, pstate.frequency_mhz)
            for pstate in config.table
        ),
    )


def summarize(config: ExperimentConfig, results) -> Table3Result:
    """Measured mean power per p-state."""
    return Table3Result(
        measured_w={
            pstate.frequency_mhz: result.mean_power_w
            for pstate, result in zip(config.table, results)
        }
    )


def render(result: Table3Result) -> str:
    """Side-by-side measured vs published worst-case power."""
    table = TextTable(["MHz", "measured W", "paper W", "dev%"])
    for freq in sorted(result.measured_w):
        table.add_row(
            f"{freq:.0f}",
            result.measured_w[freq],
            PAPER_TABLE_III[freq],
            100 * result.deviation(freq),
        )
    return (
        "Table III -- worst-case (FMA-256KB) power vs frequency\n"
        + table.render()
    )
