"""Ablation studies of the design choices DESIGN.md §5 calls out.

Each function sweeps one mechanism the paper fixes by fiat and
quantifies what it buys:

* :func:`hysteresis_ablation` -- PM's 100 ms raise window (violations vs
  performance on galgel, the hardest workload);
* :func:`guardband_ablation` -- the 0.5 W estimate guardband;
* :func:`adaptive_pm_ablation` -- the paper's future-work sketch:
  measured-power feedback vs the static model on galgel;
* :func:`dbs_ablation` -- PowerSave vs Demand-Based Switching at full
  load (PS's motivating comparison, §IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.report import TextTable
from repro.exec import (
    ExperimentConfig,
    GovernorSpec,
    RunCell,
    execute_cell,
)
from repro.experiments.metrics import (
    energy_savings,
    performance_reduction,
)


@dataclass(frozen=True)
class AblationRow:
    """One configuration's outcome."""

    label: str
    duration_s: float
    mean_power_w: float
    violation_fraction: float
    energy_j: float


def _row(label: str, result, limit_w: float | None) -> AblationRow:
    return AblationRow(
        label=label,
        duration_s=result.duration_s,
        mean_power_w=result.mean_power_w,
        violation_fraction=(
            result.violation_fraction(limit_w) if limit_w else 0.0
        ),
        energy_j=result.measured_energy_j,
    )


def hysteresis_ablation(
    config: ExperimentConfig | None = None,
    windows: Sequence[int] = (1, 5, 10, 20),
    limit_w: float = 13.5,
    workload_name: str = "galgel",
) -> tuple[AblationRow, ...]:
    """Sweep PM's raise window on the paper's hardest workload.

    Shorter windows chase performance into difficult-to-predict bursts
    and pay in violations; the paper's 10-sample (100 ms) choice trades
    a little performance for far fewer violations.
    """
    config = config or ExperimentConfig(scale=1.0)
    rows = []
    for window in windows:
        result = execute_cell(
            RunCell(
                workload=workload_name,
                governor=GovernorSpec.pm(limit_w, raise_window=window),
            ),
            config,
        )
        rows.append(_row(f"raise_window={window}", result, limit_w))
    return tuple(rows)


def guardband_ablation(
    config: ExperimentConfig | None = None,
    guardbands: Sequence[float] = (0.0, 0.25, 0.5, 1.0),
    limit_w: float = 13.5,
    workload_name: str = "galgel",
) -> tuple[AblationRow, ...]:
    """Sweep the estimate guardband: violations vs lost performance."""
    config = config or ExperimentConfig(scale=1.0)
    rows = []
    for guardband in guardbands:
        result = execute_cell(
            RunCell(
                workload=workload_name,
                governor=GovernorSpec.pm(limit_w, guardband_w=guardband),
            ),
            config,
        )
        rows.append(_row(f"guardband={guardband}W", result, limit_w))
    return tuple(rows)


def adaptive_pm_ablation(
    config: ExperimentConfig | None = None,
    limit_w: float = 13.5,
    workload_name: str = "galgel",
) -> Mapping[str, AblationRow]:
    """Static-model PM vs measured-power-feedback PM on galgel.

    The paper's proposed fix for its one enforcement failure (§IV-A2):
    adapting model coefficients online should cut galgel's violations.
    """
    config = config or ExperimentConfig(scale=1.0)
    static = execute_cell(
        RunCell(workload=workload_name, governor=GovernorSpec.pm(limit_w)),
        config,
    )
    adaptive = execute_cell(
        RunCell(
            workload=workload_name, governor=GovernorSpec.adaptive_pm(limit_w)
        ),
        config,
    )
    return {
        "static_model": _row("static model PM", static, limit_w),
        "adaptive": _row("adaptive PM", adaptive, limit_w),
    }


@dataclass(frozen=True)
class DbsComparison:
    """PS vs DBS on an always-busy workload."""

    ps_savings: float
    ps_reduction: float
    dbs_savings: float
    dbs_reduction: float


def dbs_ablation(
    config: ExperimentConfig | None = None,
    floor: float = 0.8,
    workload_name: str = "ammp",
) -> DbsComparison:
    """PS saves energy at 100% load; DBS cannot (paper §IV-B's point)."""
    config = config or ExperimentConfig(scale=0.5)
    fullspeed = execute_cell(RunCell.fixed(workload_name, 2000.0), config)
    ps = execute_cell(
        RunCell(workload=workload_name, governor=GovernorSpec.ps(floor)),
        config,
    )
    dbs = execute_cell(
        RunCell(workload=workload_name, governor=GovernorSpec.dbs()), config
    )
    return DbsComparison(
        ps_savings=energy_savings(ps, fullspeed),
        ps_reduction=performance_reduction(ps, fullspeed),
        dbs_savings=energy_savings(dbs, fullspeed),
        dbs_reduction=performance_reduction(dbs, fullspeed),
    )


def render_rows(title: str, rows: Sequence[AblationRow]) -> str:
    """Shared text rendering for ablation sweeps."""
    table = TextTable(["config", "time s", "mean W", "viol frac", "energy J"])
    for row in rows:
        table.add_row(
            row.label, row.duration_s, row.mean_power_w,
            row.violation_fraction, row.energy_j,
        )
    return f"{title}\n" + table.render()
