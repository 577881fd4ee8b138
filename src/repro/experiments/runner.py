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

import dataclasses
from typing import Iterator, Sequence

from repro.campaign.store import plan_keys
from repro.core.controller import RunResult
from repro.exec.plan import ExperimentConfig, RunPlan
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

    Cells are keyed by their digest once the session has stamped them
    (:meth:`~repro.exec.session.ExecSession.stamp`,
    :func:`~repro.campaign.store.plan_keys`); its store reuses the keys.
    Each plan runs the cells no earlier plan ran, in its own order, as
    one plan of the session.  Consume each plan's results, in order,
    before asking for the next plan: serially a cell runs when its
    result is taken, and a result is held only until the last plan
    position that lists its cell, so a section that drops results as it
    goes holds few at once.
    """
    session = current_session() or ExecSession()
    plans = [session.stamp(plan) for plan in plans]
    keyed = [plan_keys(plan) for plan in plans]
    last_use = {
        digest: (i, j)
        for i, (_, digests) in enumerate(keyed)
        for j, digest in enumerate(digests)
    }
    kept: dict = {}
    for i, (plan, (specs, digests)) in enumerate(zip(plans, keyed)):
        todo: dict = {}
        for j, digest in enumerate(digests):
            if digest not in kept:
                todo.setdefault(digest, j)
        fresh = session.iter_plan(
            dataclasses.replace(
                plan, cells=tuple(plan.cells[j] for j in todo.values())
            ),
            keys=(
                [specs[j] for j in todo.values()],
                [digests[j] for j in todo.values()],
            ),
        )
        yield _take(i, digests, last_use, kept, fresh)


def _take(i, digests, last_use, kept, fresh) -> Iterator[RunResult]:
    """Plan ``i``'s results: kept ones, else the next fresh one."""
    for j, digest in enumerate(digests):
        if digest not in kept:
            kept[digest] = next(fresh)
        result = kept[digest]
        if last_use[digest] == (i, j):
            del kept[digest]
        yield result
