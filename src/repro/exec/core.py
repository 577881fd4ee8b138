"""The cell execution engine: one :class:`RunCell` -> one ``RunResult``.

This is the single code path every entry point funnels through --
:class:`~repro.exec.session.ExecSession` (and so every experiment
section), the CLI's ``run`` subcommand and the pool workers all call
:func:`execute_cell` (or :func:`prepare_cell`), so a cell produces
bit-identical results no matter which layer asked for it or which
process it ran in.

Resolution order for the cross-cutting options (telemetry, faults,
adaptation, resilience): per-cell data beats explicit arguments beats
the current :class:`~repro.exec.session.ExecSession`, which also
supplies the checkpoint session.  Pool workers run with no current
session; everything they need rides on the cell and the plan.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from repro.adaptation.manager import AdaptationConfig, AdaptationManager
from repro.core.controller import PowerManagementController, RunResult
from repro.core.resilience import ResilienceConfig
from repro.errors import PlanError
from repro.exec.plan import ExperimentConfig, RunCell
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.multicore.controller import MulticoreController
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
    controller: PowerManagementController | MulticoreController
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
            if isinstance(self.controller, MulticoreController):
                return self.controller.run(
                    workload,
                    threads=cell.threads,
                    initial_pstate=initial,
                    max_seconds=config.max_seconds,
                ).result
            return self.controller.run(
                workload,
                initial_pstate=initial,
                schedule=cell.schedule,
                max_seconds=config.max_seconds,
            )


def prepare_cell(
    cell: RunCell,
    config: ExperimentConfig,
    telemetry: TelemetryRecorder | None = None,
    fault_plan: FaultPlan | None = None,
    adaptation: AdaptationConfig | AdaptationManager | None = None,
    resilience: ResilienceConfig | None = None,
) -> PreparedCell:
    """Resolve ``cell`` into live objects without running it.

    ``telemetry``/``fault_plan``/``adaptation``/``resilience`` are the
    plan- or caller-level defaults; per-cell values override them.  No
    session is consulted: :func:`execute_cell` resolves those first.
    """
    tel = telemetry
    plan = cell.fault_plan if cell.fault_plan is not None else fault_plan
    adapt = cell.adaptation if cell.adaptation is not None else adaptation
    if adapt is not None and not isinstance(adapt, AdaptationManager):
        adapt = AdaptationManager(adapt)
    resil = cell.resilience if cell.resilience is not None else resilience
    injector = (
        FaultInjector(plan, telemetry=tel)
        if plan is not None and plan.active
        else None
    )
    if injector is not None and resil is None:
        # Injecting faults into an unhardened loop would just crash it.
        resil = ResilienceConfig()
    if cell.threads > 1:
        unsupported = [
            name
            for name, value in (
                ("fault injection", injector),
                ("adaptation", adapt),
                ("resilience", resil),
                ("constraint schedules", cell.schedule),
            )
            if value is not None
        ]
        if unsupported:
            raise PlanError(
                f"cell {cell.label}: multicore cells (threads > 1) do not "
                f"support {', '.join(unsupported)}; drop those options or "
                "run the cell single-threaded"
            )
        mc_machine = MulticoreMachine(MulticoreConfig(
            n_cores=cell.threads,
            machine=config.machine_config(cell.seed_offset),
        ))
        mc_governor = cell.governor.build(config.table, seed=config.seed)
        mc_controller = MulticoreController(
            mc_machine,
            mc_governor,
            keep_trace=config.keep_trace,
            telemetry=tel,
        )
        return PreparedCell(
            cell=cell,
            config=config,
            machine=mc_machine,
            controller=mc_controller,
            governor=mc_governor,
            injector=None,
            adaptation=None,
            telemetry=tel,
        )
    machine = Machine(config.machine_config(cell.seed_offset))
    governor = cell.governor.build(machine.config.table, seed=config.seed)
    controller = PowerManagementController(
        machine,
        governor,
        keep_trace=config.keep_trace,
        telemetry=tel,
        resilience=resil,
        injector=injector,
        adaptation=adapt,
    )
    return PreparedCell(
        cell=cell,
        config=config,
        machine=machine,
        controller=controller,
        governor=governor,
        injector=injector,
        adaptation=adapt,
        telemetry=tel,
    )


def execute_cell(
    cell: RunCell,
    config: ExperimentConfig,
    telemetry: TelemetryRecorder | None = None,
    fault_plan: FaultPlan | None = None,
    adaptation: AdaptationConfig | AdaptationManager | None = None,
    resilience: ResilienceConfig | None = None,
) -> RunResult:
    """Execute one cell under the current session's options.

    Each option comes from the cell, else the argument, else the
    current :class:`~repro.exec.session.ExecSession`.  When that session
    carries a checkpoint session, completed slots replay from the
    archive and every other slot runs from scratch and is archived --
    slot indices line up because cells execute in deterministic order.
    """
    # Imported here: repro.exec.session imports this module.
    from repro.exec.session import current_session

    session = current_session()
    checkpoint = None
    if session is not None:
        if telemetry is None:
            telemetry = session.telemetry
        if fault_plan is None:
            fault_plan = session.faults
        if adaptation is None:
            adaptation = session.adaptation
        if resilience is None:
            resilience = session.resilience
        checkpoint = session.checkpoint
    if checkpoint is not None:
        slot = checkpoint.claim()
        cached = checkpoint.archived(slot)
        if cached is not None:
            return cached
    result = prepare_cell(
        cell,
        config,
        telemetry=telemetry,
        fault_plan=fault_plan,
        adaptation=adaptation,
        resilience=resilience,
    ).execute()
    if checkpoint is not None:
        checkpoint.finish_slot(slot, result, telemetry=telemetry)
    return result
