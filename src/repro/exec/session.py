"""One composable entry point for running experiments.

Every option of a run lives on one :class:`ExecSession`: the telemetry
recorder, the fault plan, the adaptation config, the resilience config,
the checkpoint session and the worker count.  :func:`open_session`
opens one and makes it the *current* session, the only process-local
option state in the package::

    with open_session(telemetry_dir="out", faults=faults,
                      adaptation=adapt, checkpoint=ckpt,
                      workers=4) as session:
        result = session.run("mcf", GovernorSpec.ps(0.8), config)

``workers=0`` runs cells serially in-process, ``workers>=1`` fans them
out through :class:`~repro.campaign.dispatch.LeaseDispatcher` with
bit-identical results.

Code between the layers (the experiment sections'
:func:`~repro.experiments.runner.execute_plans`) runs its cells on the
current session (:func:`execute_cells` does the same for a list), and
:func:`~repro.exec.core.execute_cell` takes every option it is not
given from it -- so a CLI-level ``--workers 4 --faults F`` reaches
sweeps built many layers below without those layers knowing.  A
session opened inside another fills the recorder, fault plan,
adaptation config and checkpoint session it is not given from the
enclosing one.  To run cells *without* some enclosing option, build an
:class:`ExecSession` directly and run them on it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from typing import Dict, Iterator, List, Sequence

from repro.adaptation.manager import AdaptationConfig
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
from repro.faults.plan import FaultPlan
from repro.telemetry.recorder import TelemetryRecorder

_current: "ExecSession | None" = None


def current_session() -> "ExecSession | None":
    """The session whose options apply right now (or None)."""
    return _current


def set_session(session: "ExecSession | None") -> None:
    """Install (or clear, with ``None``) the current session."""
    global _current
    _current = session


class ExecSession:
    """A live execution scope: options + (optionally) a worker pool.

    :func:`open_session` is the usual way in.  Construct one directly
    to run cells under exactly the options given here, with nothing
    taken from the current session.
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
        return self.run_plan(RunPlan(config=config, cells=tuple(cells)))

    def run_plan(self, plan: RunPlan) -> List[RunResult]:
        """Execute a plan (serially or on the pool), in cell order."""
        return list(self.iter_plan(plan))

    def iter_plan(self, plan: RunPlan) -> Iterator[RunResult]:
        """Yield a plan's results in cell order.

        Serially, each cell runs when its result is asked for, so a
        caller that drops results as it goes holds one at a time; on
        the pool every cell runs before the first result is yielded.
        Plan-wide options the plan leaves unset come from this session,
        so serial and pool execution see the same options.  While a
        cell runs in process this session is the current one: each
        :func:`execute_cell` claims its checkpoint slot here and reads
        no other session.
        """
        plan = dataclasses.replace(
            plan,
            fault_plan=_given(plan.fault_plan, self.faults),
            adaptation=_given(plan.adaptation, self.adaptation),
            resilience=_given(plan.resilience, self.resilience),
        )
        if self.parallel:
            yield from self._run_pool(plan)
            return
        for cell in plan.cells:
            previous = current_session()
            set_session(self)
            try:
                result = execute_cell(
                    cell,
                    plan.config,
                    telemetry=self.telemetry,
                    fault_plan=plan.fault_plan,
                    adaptation=plan.adaptation,
                    resilience=plan.resilience,
                )
            finally:
                set_session(previous)
            yield result

    def _run_pool(self, plan: RunPlan) -> List[RunResult]:
        """Fan ``plan`` out over a worker pool; results in cell order.

        With a checkpoint session, slots are claimed in cell order here
        in the parent: archived cells replay without executing and
        every completed cell is archived on arrival.  A cell that fails for
        good fails the plan at once, like serial execution.
        """
        from repro.campaign.dispatch import LeaseDispatcher

        checkpoint = self.checkpoint
        results: Dict[int, RunResult] = {}
        slots: Dict[int, int] = {}
        pending: List[int] = []
        for index in range(len(plan.cells)):
            if checkpoint is not None:
                slot = slots[index] = checkpoint.claim()
                replayed = checkpoint.archived(slot)
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
        """Run a single cell and return its result."""
        cell = RunCell(
            workload=workload,
            governor=as_governor_spec(governor),
            **cell_kwargs,
        )
        return self.run_cells([cell], config or ExperimentConfig())[0]


def _given(value, default):
    """``value`` unless it is None, else ``default``."""
    return value if value is not None else default


def execute_cells(
    cells: Sequence[RunCell], config: ExperimentConfig
) -> List[RunResult]:
    """Execute cells through the current session (serial when none).

    This is the seam mid-layer code calls so that a session opened
    above it -- e.g. the CLI's ``--workers 4`` -- transparently
    parallelises its sweeps.  Without a session the cells run in
    order, in process, with no options beyond their own.
    """
    return (current_session() or ExecSession()).run_cells(cells, config)


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
    """Open an execution session and make it the current one.

    * ``workers=0`` (default): cells run serially in this process.
    * ``workers>=1``: sweeps fan out over a worker pool; per-cell
      results are bit-identical to serial execution.
    * ``telemetry_dir``: create (or reuse ``telemetry``) a recorder and
      write a full telemetry directory there on exit; with workers,
      per-worker subdirectories are merged in automatically.
    * ``faults`` / ``adaptation`` / ``resilience`` / ``checkpoint``:
      options for every cell run under the session, in this process or
      carried as data into worker processes.

    Inside another session, ``telemetry`` (unless ``telemetry_dir`` is
    given), ``faults``, ``adaptation`` and ``checkpoint`` default to the
    enclosing session's; ``workers``, ``telemetry_dir`` and
    ``resilience`` do not.
    """
    outer = current_session()
    if outer is not None:
        if telemetry_dir is None:
            telemetry = _given(telemetry, outer.telemetry)
        faults = _given(faults, outer.faults)
        adaptation = _given(adaptation, outer.adaptation)
        checkpoint = _given(checkpoint, outer.checkpoint)
    sink = None
    if telemetry_dir is not None:
        if telemetry is None:
            telemetry = TelemetryRecorder()
        from repro.telemetry.exporters import TelemetryDirectory

        sink = TelemetryDirectory(telemetry_dir)
        sink.attach(telemetry)
    session = ExecSession(
        workers=workers,
        telemetry=telemetry,
        telemetry_dir=telemetry_dir,
        faults=faults,
        adaptation=adaptation,
        resilience=resilience,
        checkpoint=checkpoint,
    )
    set_session(session)
    try:
        yield session
    finally:
        set_session(outer)
        if sink is not None:
            sink.finalize(telemetry)
        if session.telemetry_dir is not None and session.parallel:
            from repro.telemetry.merge import merge_worker_directories

            merge_worker_directories(session.telemetry_dir)
