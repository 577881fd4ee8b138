"""Worker-crash handling in ``ExecSession(workers=N)``.

A killed worker's cell is rescheduled and the results still equal
serial execution; a cell that fails for good fails the whole plan with
an :class:`ExperimentError`, exactly like serial execution.

The kill hooks must live at module level (and be bound with
``functools.partial``) so they survive pickling into worker processes.
``_kill_once`` uses ``O_CREAT | O_EXCL`` on a marker file as a
cross-process "only one of us dies" latch.
"""

from __future__ import annotations

import functools
import os
import signal

import pytest

from repro.checkpoint.digest import run_result_digest
from repro.errors import ExperimentError
from repro.exec.core import execute_cell
from repro.exec.plan import ExperimentConfig, GovernorSpec, RunCell, RunPlan
from repro.exec.session import ExecSession

CONFIG = ExperimentConfig(scale=0.05, seed=1)

CELLS = tuple(
    RunCell(workload=name, governor=GovernorSpec.fixed(freq))
    for name, freq in (
        ("ammp", 1600.0), ("mcf", 2000.0), ("ammp", 1000.0),
    )
)


def _kill_once(marker_path: str, index: int) -> None:
    """SIGKILL the calling worker the first time any worker runs this."""
    try:
        fd = os.open(marker_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def _kill_cell(target: int, index: int) -> None:
    """SIGKILL the worker every time it attempts ``target``."""
    if index == target:
        os.kill(os.getpid(), signal.SIGKILL)


def test_killed_worker_cells_are_rescheduled(tmp_path):
    serial = [
        run_result_digest(execute_cell(cell, CONFIG)) for cell in CELLS
    ]
    marker = tmp_path / "killed-once"
    session = ExecSession(
        workers=2, cell_hook=functools.partial(_kill_once, os.fspath(marker))
    )
    results = session.run_plan(RunPlan(config=CONFIG, cells=CELLS))
    assert [run_result_digest(r) for r in results] == serial
    assert marker.exists()
    assert session.last_runner.restarts >= 1
    assert session.last_runner.rescheduled >= 1


def test_cell_that_always_kills_its_worker_raises():
    session = ExecSession(
        workers=1, cell_hook=functools.partial(_kill_cell, 2)
    )
    with pytest.raises(ExperimentError, match=r"\(index 2\) failed"):
        session.run_plan(RunPlan(config=CONFIG, cells=CELLS))


def test_worker_exception_propagates():
    cells = (RunCell(workload="no-such-workload",
                     governor=GovernorSpec.dbs()),)
    session = ExecSession(workers=1)
    with pytest.raises(ExperimentError, match="no-such-workload"):
        session.run_plan(RunPlan(config=CONFIG, cells=cells))
