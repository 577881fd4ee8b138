"""The cell execution engine: one :class:`RunCell` -> one ``RunResult``.

This is the single code path every entry point funnels through --
:class:`~repro.exec.session.ExecSession` (and so every experiment
section), the CLI's ``run`` subcommand and the pool workers all call
:func:`execute_cell` (or :func:`prepare_cell`), so a cell produces
bit-identical results no matter which layer asked for it or which
process it ran in.

A cell carries every option of its run (fault plan, adaptation
config, resilience config) as data; the only other input is the
telemetry recorder a caller passes, which watches the run without
changing it.  No session is consulted, so a pool worker and the
parent run a cell alike.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from repro.adaptation.manager import AdaptationManager
from repro.core.controller import PowerManagementController, RunResult
from repro.core.resilience import ResilienceConfig
from repro.exec.plan import ExperimentConfig, RunCell
from repro.faults.injector import FaultInjector
from repro.multicore.machine import MulticoreConfig, MulticoreMachine
from repro.platform.machine import Machine
from repro.telemetry.recorder import TelemetryRecorder


@dataclass
class PreparedCell:
    """A cell resolved into live objects, ready to execute.

    The CLI uses the exposed handles (``governor``, ``injector``,
    ``adaptation``) to print post-run summaries; everything else just
    calls :meth:`execute`.
    """

    cell: RunCell
    config: ExperimentConfig
    machine: Machine | MulticoreMachine
    controller: PowerManagementController
    governor: object
    injector: FaultInjector | None
    adaptation: AdaptationManager | None
    telemetry: TelemetryRecorder | None

    def execute(self) -> RunResult:
        """Run the cell to completion."""
        cell = self.cell
        config = self.config
        workload = cell.resolve_workload().scaled(config.scale)
        initial = (
            config.table.by_frequency(cell.initial_frequency_mhz)
            if cell.initial_frequency_mhz is not None
            else None
        )
        tel = self.telemetry
        with (
            tel.span("run") if tel is not None and tel.enabled
            else contextlib.nullcontext()
        ):
            return self.controller.run(
                workload,
                initial_pstate=initial,
                max_seconds=config.max_seconds,
            )


def prepare_cell(
    cell: RunCell,
    config: ExperimentConfig,
    telemetry: TelemetryRecorder | None = None,
) -> PreparedCell:
    """Resolve ``cell`` into live objects without running it."""
    adaptation = (
        AdaptationManager(cell.adaptation)
        if cell.adaptation is not None
        else None
    )
    injector = (
        FaultInjector(cell.fault_plan, telemetry=telemetry)
        if cell.fault_plan is not None and cell.fault_plan.active
        else None
    )
    resilience = cell.resilience
    if injector is not None and resilience is None:
        # Injecting faults into an unhardened loop would just crash it.
        resilience = ResilienceConfig()
    machine_config = config.machine_config(cell.seed_offset)
    machine = (
        MulticoreMachine(
            MulticoreConfig(n_cores=cell.threads, machine=machine_config)
        )
        if cell.threads > 1
        else Machine(machine_config)
    )
    governor = cell.governor.build(config.table, seed=config.seed)
    controller = PowerManagementController(
        machine,
        governor,
        keep_trace=config.keep_trace,
        telemetry=telemetry,
        resilience=resilience,
        injector=injector,
        adaptation=adaptation,
    )
    return PreparedCell(
        cell=cell,
        config=config,
        machine=machine,
        controller=controller,
        governor=governor,
        injector=injector,
        adaptation=adaptation,
        telemetry=telemetry,
    )


def execute_cell(
    cell: RunCell,
    config: ExperimentConfig,
    telemetry: TelemetryRecorder | None = None,
) -> RunResult:
    """Execute one cell.  A direct call always runs and is never
    stored: only a session's plans are."""
    return prepare_cell(cell, config, telemetry).execute()
