"""One composable entry point for running experiments.

:func:`open_session` subsumes what previously took four nested ambient
context managers plus a pile of ``run_governed`` kwargs::

    # before
    with recording(recorder), injecting(faults), adapting(adapt), \\
            checkpointing(ckpt):
        result = run_governed("mcf", lambda t: PowerSave(t, model, 0.8),
                              config)

    # after
    with open_session(telemetry_dir="out", faults=faults,
                      adaptation=adapt, checkpoint=ckpt,
                      workers=4) as session:
        result = session.run("mcf", GovernorSpec.ps(0.8), config)

The session both *is* the ambient state (it installs the telemetry /
fault / adaptation / checkpoint contexts for legacy code underneath it)
and the execution engine handle: ``workers=0`` runs cells serially
in-process, ``workers>=1`` fans them out through
:class:`~repro.campaign.dispatch.LeaseDispatcher` with bit-identical
results.

Code between the layers (suite drivers, ``median_run``) calls
:func:`execute_cells`, which routes through the innermost open session
-- so a CLI-level ``--workers 4`` parallelises sweeps built many layers
below without those layers knowing.
"""

from __future__ import annotations

import contextlib
import os
from typing import Dict, Iterator, List, Sequence

from repro.adaptation.context import adapting, current_adaptation_config
from repro.adaptation.manager import AdaptationConfig
from repro.checkpoint.context import (
    checkpointing,
    current_checkpoint_session,
)
from repro.core.controller import RunResult
from repro.core.resilience import ResilienceConfig
from repro.errors import ExperimentError
from repro.exec.core import execute_cell
from repro.exec.plan import (
    ExperimentConfig,
    GovernorFactory,
    GovernorSpec,
    RunCell,
    RunPlan,
    as_governor_spec,
)
from repro.faults.context import current_fault_plan, injecting
from repro.faults.plan import FaultPlan
from repro.telemetry.recorder import TelemetryRecorder, recording

_current: "ExecSession | None" = None


def current_session() -> "ExecSession | None":
    """The innermost session opened by :func:`open_session` (or None)."""
    return _current


def set_session(session: "ExecSession | None") -> None:
    """Install (or clear, with ``None``) the ambient session."""
    global _current
    _current = session


@contextlib.contextmanager
def executing(session: "ExecSession | None") -> Iterator[
    "ExecSession | None"
]:
    """Temporarily install ``session`` as the ambient session.

    Lower-level than :func:`open_session`: installs *only* the session
    (for callers like the CLI that manage telemetry/fault/adaptation
    contexts themselves) so :func:`execute_cells` routes through it.
    """
    previous = current_session()
    set_session(session)
    try:
        yield session
    finally:
        set_session(previous)


class ExecSession:
    """A live execution scope: options + (optionally) a worker pool.

    Construct directly only when composing with externally-managed
    ambient contexts; otherwise use :func:`open_session`, which installs
    everything coherently.
    """

    def __init__(
        self,
        workers: int = 0,
        telemetry: TelemetryRecorder | None = None,
        telemetry_dir: str | os.PathLike | None = None,
        faults: FaultPlan | None = None,
        adaptation: AdaptationConfig | None = None,
        resilience: ResilienceConfig | None = None,
        checkpoint=None,
        cell_hook=None,
    ):
        self.workers = workers
        self.telemetry = telemetry
        self.telemetry_dir = (
            os.fspath(telemetry_dir) if telemetry_dir is not None else None
        )
        self.faults = faults
        self.adaptation = adaptation
        self.resilience = resilience
        self.checkpoint = checkpoint
        self.cell_hook = cell_hook
        #: The most recent pool's LeaseDispatcher (its ``restarts`` and
        #: ``rescheduled`` counts).
        self.last_runner = None

    @property
    def parallel(self) -> bool:
        """Whether this session dispatches to a worker pool."""
        return self.workers >= 1

    # -- running -----------------------------------------------------------

    def run_cells(
        self, cells: Sequence[RunCell], config: ExperimentConfig
    ) -> List[RunResult]:
        """Execute ``cells`` under this session's options, in cell order."""
        plan = RunPlan(
            config=config,
            cells=tuple(cells),
            fault_plan=(
                self.faults if self.faults is not None
                else current_fault_plan()
            ),
            adaptation=(
                self.adaptation if self.adaptation is not None
                else current_adaptation_config()
            ),
            resilience=self.resilience,
        )
        return self.run_plan(plan)

    def run_plan(self, plan: RunPlan) -> List[RunResult]:
        """Execute a fully-specified plan (serially or on the pool)."""
        checkpoint = (
            self.checkpoint
            if self.checkpoint is not None
            else current_checkpoint_session()
        )
        if not self.parallel:
            with checkpointing(checkpoint):
                return [
                    execute_cell(
                        cell,
                        plan.config,
                        telemetry=self.telemetry,
                        fault_plan=plan.fault_plan,
                        adaptation=plan.adaptation,
                        resilience=plan.resilience,
                    )
                    for cell in plan.cells
                ]
        return self._run_pool(plan, checkpoint)

    def _run_pool(self, plan: RunPlan, checkpoint) -> List[RunResult]:
        """Fan ``plan`` out over a worker pool; results in cell order.

        With a ``checkpoint`` session, slots are claimed in cell order
        here in the parent: archived cells replay without executing and
        every completed cell is archived on arrival (cell granularity;
        no mid-run snapshots inside workers).  A cell that fails for
        good fails the plan at once, like serial execution.
        """
        from repro.campaign.dispatch import LeaseDispatcher

        results: Dict[int, RunResult] = {}
        slots: Dict[int, int] = {}
        pending: List[int] = []
        for index in range(len(plan.cells)):
            if checkpoint is not None:
                slot = slots[index] = checkpoint.claim()
                replayed = checkpoint.archived(slot)
                if replayed is None:
                    replayed = checkpoint.resume_slot(slot, None)
                    if replayed is not None:
                        checkpoint.finish_slot(slot, replayed)
                if replayed is not None:
                    results[index] = replayed
                    continue
            pending.append(index)

        def on_result(index: int, result: RunResult) -> None:
            if checkpoint is not None:
                checkpoint.finish_slot(slots[index], result)

        def on_quarantine(index: int, record: dict) -> None:
            raise ExperimentError(
                f"cell {record['cell']} (index {index}) failed in a "
                f"worker:\n{record.get('traceback') or record['error']}"
            )

        dispatcher = LeaseDispatcher(
            self.workers,
            telemetry_root=self.telemetry_dir,
            cell_hook=self.cell_hook,
        )
        self.last_runner = dispatcher
        outcome = dispatcher.dispatch(
            plan, pending, on_result=on_result, on_quarantine=on_quarantine
        )
        if outcome.interrupted:
            raise KeyboardInterrupt
        if outcome.lost:
            raise ExperimentError(
                f"all workers exited with cells {sorted(outcome.lost)} "
                f"outstanding (restart budget "
                f"{dispatcher.max_restarts} exhausted)"
            )
        results.update(outcome.results)
        return [results[index] for index in range(len(plan.cells))]

    def run(
        self,
        workload,
        governor: GovernorSpec | GovernorFactory,
        config: ExperimentConfig | None = None,
        **cell_kwargs,
    ) -> RunResult:
        """Run a single cell (the ``run_governed`` shape) and return it."""
        cell = RunCell(
            workload=workload,
            governor=as_governor_spec(governor),
            **cell_kwargs,
        )
        return self.run_cells([cell], config or ExperimentConfig())[0]


def execute_cells(
    cells: Sequence[RunCell], config: ExperimentConfig
) -> List[RunResult]:
    """Execute cells through the ambient session (serial when none).

    This is the seam mid-layer code (suite drivers, ``median_run``,
    experiment modules) calls so that a session opened above them --
    e.g. the CLI's ``--workers 4`` -- transparently parallelises their
    sweeps.  Without a session it is exactly the historical behaviour:
    cells run in order, in process, honouring ambient contexts.
    """
    session = current_session()
    if session is not None:
        return session.run_cells(cells, config)
    return [execute_cell(cell, config) for cell in cells]


@contextlib.contextmanager
def open_session(
    workers: int = 0,
    telemetry: TelemetryRecorder | None = None,
    telemetry_dir: str | os.PathLike | None = None,
    faults: FaultPlan | None = None,
    adaptation: AdaptationConfig | None = None,
    resilience: ResilienceConfig | None = None,
    checkpoint=None,
) -> Iterator[ExecSession]:
    """Open an execution session: ambient state + engine, one handle.

    * ``workers=0`` (default): cells run serially in this process --
      behaviourally identical to the legacy context-manager stack.
    * ``workers>=1``: sweeps fan out over a worker pool; per-cell
      results are bit-identical to serial execution.
    * ``telemetry_dir``: create (or reuse ``telemetry``) a recorder and
      write a full telemetry directory there on exit; with workers,
      per-worker subdirectories are merged in automatically.
    * ``faults`` / ``adaptation`` / ``resilience`` / ``checkpoint``:
      plan-wide options, installed ambiently for legacy callees *and*
      carried as data into worker processes.
    """
    recorder = telemetry
    sink = None
    if telemetry_dir is not None:
        if recorder is None:
            recorder = TelemetryRecorder()
        from repro.telemetry.exporters import TelemetryDirectory

        sink = TelemetryDirectory(telemetry_dir)
        sink.attach(recorder)
    session = ExecSession(
        workers=workers,
        telemetry=recorder,
        telemetry_dir=telemetry_dir,
        faults=faults,
        adaptation=adaptation,
        resilience=resilience,
        checkpoint=checkpoint,
    )
    try:
        with contextlib.ExitStack() as stack:
            if recorder is not None:
                stack.enter_context(recording(recorder))
            if faults is not None:
                stack.enter_context(injecting(faults))
            if adaptation is not None:
                stack.enter_context(adapting(adaptation))
            if checkpoint is not None:
                stack.enter_context(checkpointing(checkpoint))
            stack.enter_context(executing(session))
            yield session
    finally:
        if sink is not None:
            sink.finalize(recorder)
        if session.telemetry_dir is not None and session.parallel:
            from repro.telemetry.merge import merge_worker_directories

            merge_worker_directories(session.telemetry_dir)
