"""repro: reproduction of "Application-Aware Power Management" (IISWC'06).

A complete, simulated re-implementation of Rajamani et al.'s counter-
driven DVFS power-management methodology and its two solutions --
PerformanceMaximizer (best performance under a power limit) and
PowerSave (energy savings above a performance floor) -- together with
the full substrate the paper's prototype ran on: a Pentium M 755
platform model, the MS-Loops training microbenchmarks, synthetic SPEC
CPU2000 workloads and a sense-resistor power-measurement rig.

Quick start::

    from repro import quickstart_pm

    result = quickstart_pm("ammp", power_limit_w=14.5)
    print(result.mean_power_w, result.duration_s)

See ``examples/`` for richer scenarios and ``benchmarks/`` for the
scripts regenerating every table and figure of the paper.
"""

from __future__ import annotations

__version__ = "1.0.0"

from repro.acpi import PState, PStateTable, pentium_m_755_table
from repro.errors import (
    AdaptationError,
    CampaignError,
    CheckpointError,
    DeadlineExceeded,
    DriverError,
    ExperimentError,
    FaultError,
    FaultPlanError,
    GovernorError,
    InjectedTransitionError,
    MSRError,
    MeasurementError,
    ModelError,
    PMUError,
    PStateError,
    PlanError,
    RecoveryError,
    RecoveryExhaustedError,
    ReproError,
    ResilienceError,
    SampleDropped,
    SensorFault,
    SupervisionError,
    TelemetryError,
    TrainingError,
    TransitionError,
    WatchdogError,
    WorkloadError,
)
from repro.adaptation import (
    AdaptationConfig,
    AdaptationManager,
    ModelRegistry,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    load_fault_plan,
)
from repro.core import (
    AdaptivePerformanceMaximizer,
    ComponentPerformanceMaximizer,
    EnergyDelayOptimizer,
    EnergyOptimalSearch,
    ThermalGuard,
    ThrottlingMaximizer,
    CounterSample,
    CounterSampler,
    DemandBasedSwitching,
    FixedFrequency,
    Governor,
    LinearPowerModel,
    PAPER_TABLE_II,
    PerformanceMaximizer,
    PerformanceModel,
    PowerManagementController,
    PowerSave,
    ResilienceConfig,
    RunResult,
    StaticClocking,
    project_dpc,
)
from repro.campaign import (
    Campaign,
    CampaignResult,
    ResultStore,
    run_campaign,
)
from repro.checkpoint import run_result_digest
from repro.exec import (
    ExecSession,
    ExperimentConfig,
    GovernorSpec,
    RunCell,
    RunPlan,
    open_session,
)
from repro.platform.machine import Machine, MachineConfig
from repro.measurement import PowerMeter
from repro.multicore import (
    ContentionModel,
    MulticoreConfig,
    MulticoreMachine,
    split_workload,
)
from repro.supervise import RetryPolicy, Supervisor
from repro.telemetry import NullRecorder, TelemetryRecorder
from repro.traces import (
    calibrate_trace,
    characterize_trace,
    corpus_trace,
    generate_corpus,
    ingest_file,
)
from repro.workloads import Workload, default_registry, get_workload
from repro.workloads.registry import resolve_workload_spec
from repro.workloads.traces import (
    CounterTrace,
    record_trace,
    workload_from_trace,
)

__all__ = [
    "__version__",
    "PState",
    "PStateTable",
    "pentium_m_755_table",
    "Machine",
    "MachineConfig",
    "PowerMeter",
    "Workload",
    "default_registry",
    "get_workload",
    "CounterSample",
    "CounterSampler",
    "LinearPowerModel",
    "PerformanceModel",
    "PAPER_TABLE_II",
    "project_dpc",
    "Governor",
    "PerformanceMaximizer",
    "PowerSave",
    "StaticClocking",
    "FixedFrequency",
    "DemandBasedSwitching",
    "AdaptivePerformanceMaximizer",
    "ComponentPerformanceMaximizer",
    "EnergyDelayOptimizer",
    "ThermalGuard",
    "ThrottlingMaximizer",
    "PowerManagementController",
    "RunResult",
    "TelemetryRecorder",
    "NullRecorder",
    "ResilienceConfig",
    "FaultPlan",
    "FaultInjector",
    "load_fault_plan",
    "AdaptationConfig",
    "AdaptationManager",
    "ModelRegistry",
    # The full exception hierarchy: callers harden against this package
    # the same way its own controller hardens against its drivers.
    "ReproError",
    "PStateError",
    "DriverError",
    "MSRError",
    "PMUError",
    "TransitionError",
    "WorkloadError",
    "ModelError",
    "TrainingError",
    "GovernorError",
    "MeasurementError",
    "ExperimentError",
    "PlanError",
    "CampaignError",
    "TelemetryError",
    "FaultError",
    "FaultPlanError",
    "AdaptationError",
    "SensorFault",
    "SampleDropped",
    "InjectedTransitionError",
    "RecoveryError",
    "ResilienceError",
    "WatchdogError",
    "RecoveryExhaustedError",
    "CheckpointError",
    "SupervisionError",
    "DeadlineExceeded",
    "run_result_digest",
    "RetryPolicy",
    "Supervisor",
    # The execution engine: declarative plans, one session entry point,
    # deterministic parallel fan-out.
    "ExperimentConfig",
    "GovernorSpec",
    "RunCell",
    "RunPlan",
    "ExecSession",
    "open_session",
    # Resilient campaigns: content-addressed result store, lease-based
    # dispatch, poison-cell quarantine.
    "Campaign",
    "CampaignResult",
    "ResultStore",
    "run_campaign",
    # Trace-driven workloads: counter logs and the scenario corpus as
    # first-class workload inputs.
    "CounterTrace",
    "calibrate_trace",
    "characterize_trace",
    "corpus_trace",
    "generate_corpus",
    "ingest_file",
    "record_trace",
    "resolve_workload_spec",
    "workload_from_trace",
    # The multicore platform: shared-bus contention and the
    # (threads x frequency) energy-optimal configuration governors.
    "ContentionModel",
    "MulticoreConfig",
    "MulticoreMachine",
    "split_workload",
    "EnergyOptimalSearch",
    "quickstart_pm",
    "quickstart_ps",
]


def quickstart_pm(
    workload_name: str,
    power_limit_w: float,
    seed: int = 0,
    scale: float = 0.1,
) -> RunResult:
    """One-call PerformanceMaximizer run on a named workload.

    Uses the paper's published Table II coefficients (so no training run
    is needed) and a scaled-down instruction budget for fast turnaround.
    """
    table = pentium_m_755_table()
    machine = Machine(MachineConfig(seed=seed))
    governor = PerformanceMaximizer(
        table, LinearPowerModel.paper_model(), power_limit_w
    )
    controller = PowerManagementController(machine, governor)
    return controller.run(get_workload(workload_name).scaled(scale))


def quickstart_ps(
    workload_name: str,
    floor: float,
    seed: int = 0,
    scale: float = 0.1,
) -> RunResult:
    """One-call PowerSave run on a named workload."""
    table = pentium_m_755_table()
    machine = Machine(MachineConfig(seed=seed))
    governor = PowerSave(table, PerformanceModel.paper_primary(), floor)
    controller = PowerManagementController(machine, governor)
    return controller.run(get_workload(workload_name).scaled(scale))
