"""Model training on the MS-Loops microbenchmarks (paper §III-A).

This module re-runs the paper's model-construction procedure on the
simulated platform:

1. **Collect** -- run each of the 12 microbenchmarks (4 loops x 3
   footprints) at every p-state, recording mean DPC, IPC, DCU and
   *measured* power (through the simulated sense-resistor/DAQ rig).
   Because the PMU has only two counters, each point is characterized in
   two passes with different counter programmings -- feasible precisely
   because the loops are stable across runs, which the paper gives as
   the reason for using small well-defined loops as the training set.
   Each pass is a controller run under an
   :class:`~repro.core.governors.unconstrained.EventProbe`, cut at
   ``duration_s`` -- the same monitoring path the governors later
   control with.
2. **Fit power** -- per p-state linear fit ``P = alpha*DPC + beta``
   minimizing *absolute* error (the paper's criterion), via iteratively
   reweighted least squares.
3. **Fit performance** -- grid-optimize the DCU/IPC threshold and the
   memory-class exponent of Eq. 3 against the measured cross-p-state
   IPC ratios.

The reproduced Table II is compared against the published one in the
Table II experiment; the exponent error curve exposes the 0.81/0.59
local-minima story of §IV-B2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.acpi.pstates import PState, PStateTable, pentium_m_755_table
from repro.core.models.performance import PerformanceModel
from repro.core.models.power import LinearPowerModel, PStateCoefficients
from repro.errors import TrainingError
from repro.measurement.power_meter import PowerMeter
from repro.platform.events import Event
from repro.platform.machine import Machine, MachineConfig
from repro.workloads.base import Workload
from repro.workloads.microbenchmarks import ms_loops


@dataclass(frozen=True)
class TrainingPoint:
    """One (workload, p-state) characterization."""

    workload: str
    frequency_mhz: float
    dpc: float
    ipc: float
    dcu: float
    measured_power_w: float

    @property
    def dcu_per_ipc(self) -> float:
        """Memory-boundedness metric of this point."""
        return self.dcu / self.ipc if self.ipc > 0 else float("inf")


def _characterize(
    workload: Workload,
    pstate: PState,
    events: Sequence[Event],
    config: MachineConfig,
    duration_s: float,
    warmup_ticks: int,
) -> tuple[dict[Event, float], float]:
    """Run ``workload`` at ``pstate`` for ``duration_s`` and average the
    rates and measured power of the ticks after ``warmup_ticks``."""
    # The controller imports the governors, which import the models.
    from repro.core.controller import PowerManagementController
    from repro.core.governors.unconstrained import EventProbe

    machine = Machine(config)
    meter = PowerMeter(
        interval_s=config.tick_s, rng=np.random.default_rng(config.seed + 7)
    )
    controller = PowerManagementController(
        machine, EventProbe(config.table, pstate.frequency_mhz, events),
        meter=meter, keep_trace=True,
    )
    result = controller.run(
        workload, initial_pstate=pstate, until_s=duration_s
    )
    trace = result.trace[warmup_ticks:]
    if not trace:
        raise TrainingError(
            f"{workload.name} at {pstate}: no usable samples "
            f"(duration_s={duration_s}, warmup={warmup_ticks})"
        )
    sums = {event: 0.0 for event in events}
    for row in trace:
        for event in events:
            sums[event] += row.rates[event]
    power_samples = result.samples[warmup_ticks:]
    if not power_samples:
        raise TrainingError(f"{workload.name} at {pstate}: no power samples")
    mean_power = float(np.mean([s.watts for s in power_samples]))
    return {e: sums[e] / len(trace) for e in events}, mean_power


def collect_training_data(
    workloads: Iterable[Workload] | None = None,
    table: PStateTable | None = None,
    config: MachineConfig | None = None,
    duration_s: float = 0.25,
    warmup_ticks: int = 2,
) -> tuple[TrainingPoint, ...]:
    """Characterize the training set at every p-state (two passes each).

    Returns one :class:`TrainingPoint` per (workload, p-state) with DPC,
    IPC, DCU and measured power -- the paper's 12-points-per-p-state
    training data (§III-A).
    """
    workloads = tuple(workloads) if workloads is not None else ms_loops()
    table = table if table is not None else pentium_m_755_table()
    config = config if config is not None else MachineConfig()

    points: list[TrainingPoint] = []
    for workload in workloads:
        for pstate in table:
            # Pass 1: decode + retire rates, and the power measurement.
            rates1, power = _characterize(
                workload,
                pstate,
                (Event.INST_DECODED, Event.INST_RETIRED),
                config,
                duration_s,
                warmup_ticks,
            )
            # Pass 2: DCU occupancy (re-measures IPC as a cross-check).
            rates2, _ = _characterize(
                workload,
                pstate,
                (Event.DCU_MISS_OUTSTANDING, Event.INST_RETIRED),
                config,
                duration_s,
                warmup_ticks,
            )
            points.append(
                TrainingPoint(
                    workload=workload.name,
                    frequency_mhz=pstate.frequency_mhz,
                    dpc=rates1[Event.INST_DECODED],
                    ipc=rates1[Event.INST_RETIRED],
                    dcu=rates2[Event.DCU_MISS_OUTSTANDING],
                    measured_power_w=power,
                )
            )
    return tuple(points)


def _l1_linear_fit(
    x: np.ndarray, y: np.ndarray, iterations: int = 60, eps: float = 1e-6
) -> tuple[float, float]:
    """Least-absolute-error line fit via iteratively reweighted LS.

    The paper minimizes absolute-value error between measured and
    estimated power (§III-A1); IRLS with 1/|residual| weights converges
    to that L1 solution for clean data like the training set.
    """
    if len(x) < 2:
        raise TrainingError("need at least two points for a linear fit")
    design = np.column_stack([x, np.ones_like(x)])
    weights = np.ones_like(y)
    slope, intercept = 0.0, float(np.median(y))
    for _ in range(iterations):
        w_design = design * weights[:, None]
        w_y = y * weights
        slope, intercept = np.linalg.lstsq(w_design, w_y, rcond=None)[0]
        residuals = np.abs(y - (slope * x + intercept))
        weights = 1.0 / np.sqrt(np.maximum(residuals, eps))
    return float(slope), float(intercept)


def fit_power_model(points: Sequence[TrainingPoint]) -> LinearPowerModel:
    """Fit the per-p-state linear power model (reproduces Table II)."""
    if not points:
        raise TrainingError("empty training set")
    by_freq: dict[float, list[TrainingPoint]] = {}
    for point in points:
        by_freq.setdefault(point.frequency_mhz, []).append(point)
    coefficients: dict[float, PStateCoefficients] = {}
    for freq, group in by_freq.items():
        if len(group) < 3:
            raise TrainingError(
                f"{freq} MHz has only {len(group)} training points; "
                "the fit needs the full loop/footprint spread"
            )
        x = np.array([p.dpc for p in group])
        y = np.array([p.measured_power_w for p in group])
        alpha, beta = _l1_linear_fit(x, y)
        coefficients[freq] = PStateCoefficients(alpha=alpha, beta=beta)
    return LinearPowerModel(coefficients)


def _performance_error(
    points: Sequence[TrainingPoint],
    model: PerformanceModel,
) -> float:
    """Mean relative |error| of cross-p-state IPC prediction.

    For every workload and every ordered pair of p-states, predict the
    IPC at the target state from the source-state sample and compare to
    the measured IPC there -- the quantity the paper optimized threshold
    and exponent against.
    """
    by_workload: dict[str, list[TrainingPoint]] = {}
    for point in points:
        by_workload.setdefault(point.workload, []).append(point)
    errors: list[float] = []
    for group in by_workload.values():
        for src in group:
            for dst in group:
                if src.frequency_mhz == dst.frequency_mhz:
                    continue
                predicted = model.project_ipc(
                    src.ipc, src.dcu_per_ipc, src.frequency_mhz, dst.frequency_mhz
                )
                if dst.ipc > 0:
                    errors.append(abs(predicted - dst.ipc) / dst.ipc)
    if not errors:
        raise TrainingError("no cross-p-state pairs in the training set")
    return float(np.mean(errors))


def fit_performance_model(
    points: Sequence[TrainingPoint],
    thresholds: Sequence[float] | None = None,
    exponents: Sequence[float] | None = None,
) -> PerformanceModel:
    """Grid-optimize Eq. 3's threshold and exponent on the training set."""
    thresholds = (
        tuple(thresholds)
        if thresholds is not None
        else tuple(np.round(np.arange(0.4, 3.01, 0.05), 4))
    )
    exponents = (
        tuple(exponents)
        if exponents is not None
        else tuple(np.round(np.arange(0.30, 1.001, 0.01), 4))
    )
    best: tuple[float, PerformanceModel] | None = None
    for threshold in thresholds:
        for exponent in exponents:
            model = PerformanceModel(
                dcu_threshold=float(threshold), memory_exponent=float(exponent)
            )
            error = _performance_error(points, model)
            if best is None or error < best[0]:
                best = (error, model)
    assert best is not None
    return best[1]


def exponent_error_curve(
    points: Sequence[TrainingPoint],
    threshold: float = 1.21,
    exponents: Sequence[float] | None = None,
) -> tuple[tuple[float, float], ...]:
    """(exponent, error) curve at a fixed threshold.

    The paper reports *two* local minima of this curve -- 0.81 (used as
    primary) and 0.59 (the alternative that fixes art/mcf) -- so the
    curve itself is an experiment artifact (§IV-B2).
    """
    exponents = (
        tuple(exponents)
        if exponents is not None
        else tuple(np.round(np.arange(0.30, 1.001, 0.01), 4))
    )
    curve = []
    for exponent in exponents:
        model = PerformanceModel(
            dcu_threshold=threshold, memory_exponent=exponent
        )
        curve.append((float(exponent), _performance_error(points, model)))
    return tuple(curve)


def local_minima(curve: Sequence[tuple[float, float]]) -> tuple[float, ...]:
    """Exponents at local minima of an error curve (including endpoints)."""
    minima = []
    for i, (exponent, error) in enumerate(curve):
        left = curve[i - 1][1] if i > 0 else float("inf")
        right = curve[i + 1][1] if i + 1 < len(curve) else float("inf")
        if error <= left and error <= right:
            minima.append(exponent)
    return tuple(minima)


def summarize_points(
    points: Sequence[TrainingPoint],
) -> Mapping[float, tuple[float, float]]:
    """Per-frequency (min DPC, max DPC) spread -- fit-quality diagnostics."""
    by_freq: dict[float, list[float]] = {}
    for point in points:
        by_freq.setdefault(point.frequency_mhz, []).append(point.dpc)
    return {
        freq: (min(vals), max(vals)) for freq, vals in sorted(by_freq.items())
    }
