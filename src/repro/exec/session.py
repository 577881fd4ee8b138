"""One composable entry point for running experiments.

A run's options -- fault plan, adaptation config, resilience config --
ride on its :class:`~repro.exec.plan.RunCell`.  An :class:`ExecSession`
holds what is not part of a run: the telemetry recorder, the result
store and the worker count.  :func:`open_session` opens one and makes
it the *current* session, the only process-local state in the
package::

    with open_session(telemetry_dir="out", store=store,
                      workers=4) as session:
        result = session.run("mcf", GovernorSpec.ps(0.8), config)

``workers=0`` runs cells serially in-process, ``workers>=1`` fans them
out through :class:`~repro.campaign.dispatch.LeaseDispatcher` with
bit-identical results.

Code between the layers (the experiment sections'
:func:`~repro.experiments.runner.execute_plans`) runs its cells on the
current session, so a CLI-level ``--workers 4`` reaches sweeps built
many layers below without those layers knowing.  A session's
``faults`` / ``adaptation`` are a stamp, not a carrier:
:meth:`ExecSession.stamp` sets them on every cell of a plan the
session runs that leaves them unset, before the plan is keyed, so a
stamped cell and one that carried the same option are the same run
under the same store key.  A session opened inside another takes
nothing from it.
"""

from __future__ import annotations

import contextlib
import os
from typing import TYPE_CHECKING, Iterator, List, Sequence

from repro.adaptation.manager import AdaptationConfig
from repro.core.controller import RunResult
from repro.errors import ExperimentError
from repro.exec.core import execute_cell
from repro.exec.plan import ExperimentConfig, GovernorSpec, RunCell, RunPlan
from repro.faults.plan import FaultPlan
from repro.telemetry.recorder import TelemetryRecorder

if TYPE_CHECKING:
    from repro.campaign.store import ResultStore

_current: "ExecSession | None" = None


def current_session() -> "ExecSession | None":
    """The session whose options apply right now (or None)."""
    return _current


def set_session(session: "ExecSession | None") -> None:
    """Install (or clear, with ``None``) the current session."""
    global _current
    _current = session


class ExecSession:
    """A live execution scope: recorder, store, stamp and worker pool.

    :func:`open_session` is the usual way in.  Construct one directly
    to run cells without making it the current session.
    """

    def __init__(
        self,
        workers: int = 0,
        telemetry: TelemetryRecorder | None = None,
        telemetry_dir: str | os.PathLike | None = None,
        faults: FaultPlan | None = None,
        adaptation: AdaptationConfig | None = None,
        store: "ResultStore | None" = None,
        cell_hook=None,
    ):
        self.workers = workers
        self.telemetry = telemetry
        self.telemetry_dir = (
            os.fspath(telemetry_dir) if telemetry_dir is not None else None
        )
        self.faults = faults
        self.adaptation = adaptation
        self.store = store
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

    def stamp(self, plan: RunPlan) -> RunPlan:
        """``plan`` with this session's ``faults`` / ``adaptation`` set
        on every cell that leaves them unset: what :meth:`iter_plan`
        runs and keys."""
        return plan.stamp(fault_plan=self.faults, adaptation=self.adaptation)

    def iter_plan(self, plan: RunPlan, keys=None) -> Iterator[RunResult]:
        """Yield a plan's results in cell order.

        Serially, each cell runs when its result is asked for, so a
        caller that drops results as it goes holds one at a time; on
        the pool every cell runs before the first result is yielded.
        Cells run as :meth:`stamp` leaves them.  A store serves the
        cells it holds and keeps every other one; ``keys`` is
        ``plan_keys(stamp(plan))`` when the caller has it, and no cell
        is keyed without a store.  Serially, a digest's first occurrence
        in a store opening also restores the registry it was put with; a
        recurrence runs again under an enabled recorder, as it would
        without a store, and is not put again.
        """
        plan = self.stamp(plan)
        store = self.store
        if store is None:
            keys = [None] * len(plan.cells), [None] * len(plan.cells)
        elif keys is None:
            from repro.campaign.store import plan_keys

            keys = plan_keys(plan)
        specs, digests = keys
        if self.parallel:
            yield from self._run_pool(plan, specs, digests)
            return
        tel = self.telemetry
        observed = tel is not None and tel.enabled
        # Results are yielded unbound, so the suspended generator does
        # not hold one after its caller drops it.
        for cell, spec, digest in zip(plan.cells, specs, digests):
            if store is None:
                yield execute_cell(cell, plan.config, telemetry=tel)
            else:
                yield _serve(
                    store, cell, plan.config, spec, digest, tel, observed
                )

    def _run_pool(self, plan: RunPlan, specs, digests) -> List[RunResult]:
        """Fan ``plan`` out over a worker pool; results in cell order.

        The store serves and keeps cells as for a campaign.  A cell that
        fails for good fails the plan at once, like serial execution.
        """
        from repro.campaign.dispatch import LeaseDispatcher

        store = self.store
        served, quarantined, pending, aliases = (
            {}, [], list(range(len(digests))), {}
        ) if store is None else store.lookup(digests)
        pending = sorted(pending + quarantined)  # rerun quarantined cells

        def on_result(index: int, result: RunResult) -> None:
            if digests[index] is not None:
                store.put(digests[index], specs[index], result)

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
        results = {**served, **outcome.results}
        for primary, extra in aliases.items():
            for index in extra:
                results[index] = results[primary]
        return [results[index] for index in range(len(plan.cells))]

    def run(
        self,
        workload: str,
        governor: GovernorSpec,
        config: ExperimentConfig | None = None,
        **cell_kwargs,
    ) -> RunResult:
        """Run a single cell and return its result."""
        cell = RunCell(workload=workload, governor=governor, **cell_kwargs)
        return self.run_cells([cell], config or ExperimentConfig())[0]


def _serve(store, cell, config, spec, digest, tel, observed) -> RunResult:
    """One cell of a serial plan under ``store``: its stored result, or
    a run that is put unless its digest already recurred."""
    first = digest not in store.visited
    if first or not observed:
        result = store.get(digest, telemetry=tel if first else None)
        if result is not None:
            store.visited.add(digest)
            return result
    result = execute_cell(cell, config, telemetry=tel)
    if first:
        store.put(digest, spec, result, telemetry=tel)
        store.visited.add(digest)
    return result


@contextlib.contextmanager
def open_session(
    workers: int = 0,
    telemetry: TelemetryRecorder | None = None,
    telemetry_dir: str | os.PathLike | None = None,
    faults: FaultPlan | None = None,
    adaptation: AdaptationConfig | None = None,
    store: "ResultStore | None" = None,
) -> Iterator[ExecSession]:
    """Open an execution session and make it the current one.

    * ``workers=0`` (default): cells run serially in this process.
    * ``workers>=1``: sweeps fan out over a worker pool; per-cell
      results are bit-identical to serial execution.
    * ``telemetry_dir``: create (or reuse ``telemetry``) a recorder and
      write a full telemetry directory there on exit; with workers,
      per-worker subdirectories are merged in automatically.
    * ``faults`` / ``adaptation``: stamped on every cell the session
      runs that leaves them unset (:meth:`ExecSession.stamp`).
    * ``store``: a :class:`~repro.campaign.store.ResultStore` serving
      and keeping the session's cells (:meth:`ExecSession.iter_plan`);
      its owner closes it, which fsyncs the log once.

    The enclosing session, if any, is current again on exit.
    """
    outer = current_session()
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
        store=store,
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
