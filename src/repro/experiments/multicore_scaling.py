"""Multicore scaling: where single-core Eq. 3 breaks, and the
energy-optimal (threads x frequency) configuration per family.

Two questions the single-core paper cannot answer:

* **Projection breakdown.**  Eq. 3 projects throughput across
  frequencies from one core's counters.  On a multicore part the
  shared front-side bus couples the cores: a co-runner's traffic
  inflates effective memory latency, so the projected frequency
  sensitivity drifts from the truth as core count grows.  Part A
  measures that drift per workload family and reports the break
  point -- the core count where the projection error first exceeds
  the threshold over its single-core baseline.

* **Energy-optimal configuration.**  With ``threads`` as a second
  knob next to frequency, the minimum-energy operating point is a
  *(threads, frequency)* pair: core-bound work wants all cores at a
  moderate clock, bandwidth-saturated work wants fewer cores (the
  extra ones only burn power waiting on the bus).  Part B sweeps the
  measured grid on the largest machine and compares the argmin
  against :class:`EnergyOptimalSearch`'s projection-table prediction.

The result is a JSON-safe mapping so the benchmark harness can
archive it as ``BENCH_multicore.json``.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.analysis.report import TextTable
from repro.core.controller import PowerManagementController, RunResult
from repro.core.governors.energy_optimal import EnergyOptimalSearch
from repro.core.governors.unconstrained import FixedFrequency
from repro.core.models.performance import PerformanceModel
from repro.core.models.power import LinearPowerModel
from repro.exec.plan import ExperimentConfig
from repro.multicore.contention import ContentionModel
from repro.multicore.machine import MulticoreConfig, MulticoreMachine
from repro.platform.machine import Machine
from repro.platform.calibration import workload_signature
from repro.workloads.registry import get_workload

#: One representative per workload family (paper suite categories).
FAMILIES: Mapping[str, str] = {
    "core": "crafty",
    "mixed": "ammp",
    "memory": "swim",
}

#: The frequency Part A projects down to from 2000 MHz.
PROJECTION_FREQ_MHZ = 1000.0

#: The frequency axis of Part B's measured grid (every other p-state).
GRID_FREQUENCIES_MHZ = (600.0, 1200.0, 1600.0, 2000.0)

#: A core count breaks the projection when its error exceeds the
#: single-core baseline by this many percentage points.
BREAK_THRESHOLD_PCT = 5.0


def _core_counts(scale: float) -> tuple[int, ...]:
    """Deeper sweeps at larger scales (CI stays on the short one)."""
    return (1, 2, 4) if scale >= 0.4 else (1, 2)


def _run_fixed(
    workload,
    n_cores: int,
    threads: int,
    frequency_mhz: float,
    config: ExperimentConfig,
) -> tuple[RunResult, float]:
    """One pinned-frequency run on an ``n_cores`` machine: its result
    and peak bus utilization."""
    table = config.table
    machine = MulticoreMachine(MulticoreConfig(
        n_cores=n_cores, machine=config.machine_config(),
    ))
    controller = PowerManagementController(
        machine, FixedFrequency(table, frequency_mhz), keep_trace=False,
    )
    result = controller.run(
        workload,
        initial_pstate=table.by_frequency(frequency_mhz),
        max_seconds=config.max_seconds,
        threads=threads,
    )
    return result, machine.peak_bus_utilization


def _throughput_ips(result: RunResult) -> float:
    return result.instructions / result.duration_s


def run(config: ExperimentConfig | None = None) -> Mapping[str, Any]:
    """Measure projection breakdown and the energy-optimal grid."""
    config = config or ExperimentConfig(scale=0.1)
    table = config.table
    core_counts = _core_counts(config.scale)
    n_max = max(core_counts)
    thread_counts = tuple(range(1, n_max + 1))
    model = PerformanceModel.paper_primary()
    contention = ContentionModel()
    ceiling = contention.ceiling(config.machine.timing)

    projection: dict[str, list[dict[str, Any]]] = {}
    break_points: dict[str, int | None] = {}
    energy_optimal: dict[str, dict[str, Any]] = {}

    for family, name in FAMILIES.items():
        workload = get_workload(name).scaled(config.scale)
        signature = workload_signature(get_workload(name))
        predicted_ratio = model.project_throughput(
            signature.ipc, signature.dcu_per_ipc,
            2000.0, PROJECTION_FREQ_MHZ,
        ) / (signature.ipc * 2000.0e6)

        # -- Part A: single-core Eq. 3 projection vs measured scaling --
        rows = []
        for n in core_counts:
            hi, peak_bus = _run_fixed(workload, n, n, 2000.0, config)
            lo, _ = _run_fixed(workload, n, n, PROJECTION_FREQ_MHZ, config)
            actual_ratio = _throughput_ips(lo) / _throughput_ips(hi)
            error_pct = 100.0 * abs(
                predicted_ratio - actual_ratio
            ) / actual_ratio
            rows.append({
                "cores": n,
                "actual_ratio": actual_ratio,
                "predicted_ratio": predicted_ratio,
                "error_pct": error_pct,
                "peak_bus_utilization": peak_bus,
            })
        projection[family] = rows
        baseline = rows[0]["error_pct"]
        break_points[family] = next(
            (
                row["cores"]
                for row in rows
                if row["error_pct"] > baseline + BREAK_THRESHOLD_PCT
            ),
            None,
        )

        # -- Part B: measured (threads x frequency) energy grid --------
        grid = []
        for t in thread_counts:
            for f in GRID_FREQUENCIES_MHZ:
                out, _ = _run_fixed(workload, n_max, t, f, config)
                grid.append({
                    "threads": t,
                    "frequency_mhz": f,
                    "energy_per_gi_j": out.true_energy_j
                    / (out.instructions / 1e9),
                    "throughput_ips": _throughput_ips(out),
                })
        measured = min(grid, key=lambda cell: cell["energy_per_gi_j"])

        # The governor's prediction from single-core counters alone.
        search = EnergyOptimalSearch(
            table,
            LinearPowerModel.paper_model(),
            model,
            n_cores=n_max,
            thread_counts=thread_counts,
            bandwidth_ceiling_bytes_per_s=ceiling,
        )
        machine = Machine(config.machine_config())
        machine.load(workload)
        rates = machine.peek_rates()
        best = search.best_configuration(
            signature.ipc,
            signature.dpc,
            signature.dcu_per_ipc * signature.ipc,
            table.fastest,
            bytes_per_instruction=rates.bytes_per_s / rates.ips,
        )
        energy_optimal[family] = {
            "workload": name,
            "measured": {
                "threads": measured["threads"],
                "frequency_mhz": measured["frequency_mhz"],
                "energy_per_gi_j": measured["energy_per_gi_j"],
            },
            "predicted": {
                "threads": best.threads,
                "frequency_mhz": best.pstate.frequency_mhz,
                "energy_per_gi_j": best.energy_per_giga_instruction_j,
            },
            "grid": grid,
        }

    return {
        "scale": config.scale,
        "core_counts": list(core_counts),
        "grid_frequencies_mhz": list(GRID_FREQUENCIES_MHZ),
        "projection_freq_mhz": PROJECTION_FREQ_MHZ,
        "break_threshold_pct": BREAK_THRESHOLD_PCT,
        "families": dict(FAMILIES),
        "projection": projection,
        "break_points": break_points,
        "energy_optimal": energy_optimal,
    }


def render(data: Mapping[str, Any]) -> str:
    """Projection-breakdown and energy-optimal tables."""
    proj = TextTable(
        ["family", "cores", "actual 2000->1000",
         "Eq.3 predicted", "error %", "bus util"]
    )
    for family, rows in data["projection"].items():
        for row in rows:
            proj.add_row(
                family, row["cores"], row["actual_ratio"],
                row["predicted_ratio"], row["error_pct"],
                row["peak_bus_utilization"],
            )
    breaks = ", ".join(
        f"{family}: {point if point is not None else 'none'}"
        for family, point in data["break_points"].items()
    )
    optimal = TextTable(
        ["family", "workload", "measured (t, MHz)", "J/Gi",
         "predicted (t, MHz)", "J/Gi "]
    )
    for family, entry in data["energy_optimal"].items():
        measured, predicted = entry["measured"], entry["predicted"]
        optimal.add_row(
            family, entry["workload"],
            f"({measured['threads']}, {measured['frequency_mhz']:.0f})",
            measured["energy_per_gi_j"],
            f"({predicted['threads']}, {predicted['frequency_mhz']:.0f})",
            predicted["energy_per_gi_j"],
        )
    return (
        "Single-core Eq. 3 projection under shared-bus contention "
        f"(threshold {data['break_threshold_pct']:.0f} pp over 1-core)\n"
        + proj.render()
        + f"\nbreak points (cores): {breaks}\n\n"
        + "Energy-optimal (threads, frequency) configurations "
        f"on {max(data['core_counts'])} cores\n"
        + optimal.render()
    )
