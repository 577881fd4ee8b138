"""The section protocol: plan the cells, run each distinct one once.

Every report section (``figN_*``, ``tableN_*``, the accuracy,
characterization and hierarchy probes) is three functions:

* ``plan(config, **params) -> RunPlan`` lists the section's cells in
  call order (analytic sections plan :func:`no_cells`);
* ``summarize(config, results, **params)`` builds the section's result
  from an iterable of those cells' results, in the same order, which
  it takes once;
* ``render(result) -> str`` formats it.

:func:`execute_plans` runs several sections' plans as one: each
distinct (config, cell) executes once, through the current session.
:func:`run_section` is the one-section case that ``experiment NAME``,
the tests and the benchmarks call; ``report`` hands every selected
section to :func:`execute_plans` at once.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.campaign.store import cell_digest
from repro.core.controller import RunResult
from repro.errors import ReproError
from repro.exec.plan import ExperimentConfig, RunCell, RunPlan
from repro.exec.session import ExecSession, current_session

__all__ = ["execute_plans", "no_cells", "run_section"]


def no_cells(config: ExperimentConfig | None = None, **params) -> RunPlan:
    """The ``plan`` of a section that runs no cells of its own."""
    return RunPlan(config=config or ExperimentConfig(), cells=())


def run_section(module, config: ExperimentConfig | None = None, **params):
    """Plan, execute and summarize one section module."""
    plan = module.plan(config, **params)
    (results,) = execute_plans([plan])
    return module.summarize(plan.config, results, **params)


def execute_plans(
    plans: Sequence[RunPlan],
) -> Iterator[Iterator[RunResult]]:
    """Yield, per plan, its results in cell order; each distinct cell
    runs once, through the current session.

    Cells are keyed by their canonical campaign spec
    (:func:`~repro.campaign.store.cell_digest`).  A cell that has none
    -- an inline workload, a schedule, a factory governor, a bespoke
    machine -- is never shared.  Each plan runs the cells no earlier
    plan ran, in its own order, as one plan of the session.  Consume
    each plan's results, in order, before asking for the next plan:
    serially a cell runs when its result is taken, and a result is
    held only until the last plan position that lists its cell, so a
    section that drops results as it goes holds few at once.
    """
    session = current_session() or ExecSession()
    keys = [
        [_cell_key(cell, plan) or (i, j) for j, cell in enumerate(plan.cells)]
        for i, plan in enumerate(plans)
    ]
    last_use = {
        key: (i, j)
        for i, plan_keys in enumerate(keys)
        for j, key in enumerate(plan_keys)
    }
    kept: dict = {}
    for i, plan in enumerate(plans):
        todo: dict = {}
        for key, cell in zip(keys[i], plan.cells):
            if key not in kept:
                todo.setdefault(key, cell)
        fresh = session.iter_plan(
            RunPlan(config=plan.config, cells=tuple(todo.values()))
        )
        yield _take(i, keys[i], last_use, kept, fresh)


def _take(i, plan_keys, last_use, kept, fresh) -> Iterator[RunResult]:
    """Plan ``i``'s results: kept ones, else the next fresh one."""
    for j, key in enumerate(plan_keys):
        if key not in kept:
            kept[key] = next(fresh)
        result = kept[key]
        if last_use[key] == (i, j):
            del kept[key]
        yield result


def _cell_key(cell: RunCell, plan: RunPlan) -> str | None:
    """The cell's content digest, or None when it has no canonical spec."""
    try:
        return cell_digest(cell, plan)
    except ReproError:
        return None
