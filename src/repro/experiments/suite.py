"""SPEC-suite plan builders shared by the figure sections.

:func:`suite_fixed` and :func:`suite_governed` list a sweep's cells;
:func:`take_suite` reads the same sweep back out of a section's
results, applying the paper's median-of-``runs`` pick.  Cells name
their workloads, so equal cells in different sections share one
canonical spec and :func:`~repro.experiments.runner.execute_plans`
runs them once.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.core.controller import RunResult
from repro.errors import ExperimentError
from repro.exec.plan import GovernorSpec, RunCell
from repro.workloads.registry import default_registry


def suite_names() -> tuple[str, ...]:
    """The 26 SPEC CPU2000 benchmark names, in suite order."""
    return tuple(w.name for w in default_registry().spec_suite())


def suite_fixed(frequency_mhz: float) -> List[RunCell]:
    """Every SPEC benchmark pinned at one frequency."""
    return [
        RunCell.fixed(name, frequency_mhz, group=name)
        for name in suite_names()
    ]


def suite_governed(governor: GovernorSpec, runs: int) -> List[RunCell]:
    """Every SPEC benchmark under ``governor``, ``runs`` times each.

    Repetition ``rep`` runs with seed offset ``100 * rep``; the flat
    benchmark x repetition list keeps every pool worker busy across
    benchmark boundaries.
    """
    if runs < 1:
        raise ExperimentError("need at least one run")
    return [
        RunCell(
            workload=name,
            governor=governor,
            seed_offset=100 * rep,
            group=name,
            rep=rep,
        )
        for name in suite_names()
        for rep in range(runs)
    ]


def take_suite(
    results: Iterator[RunResult], runs: int = 1
) -> Dict[str, RunResult]:
    """The next suite sweep in ``results``, by benchmark name.

    Each benchmark's ``runs`` repetitions reduce to the one with the
    median duration: "we employ the standard SPEC approach of executing
    three times and reporting data from the run with the median
    execution time" (paper §IV).
    """
    return {
        name: pick_median([next(results) for _ in range(runs)])
        for name in suite_names()
    }


def pick_median(results: List[RunResult]) -> RunResult:
    """The median-duration result (paper §IV's selection rule)."""
    ordered = sorted(results, key=lambda r: r.duration_s)
    return ordered[len(ordered) // 2]
