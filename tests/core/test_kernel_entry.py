"""Every controller run enters the fused kernel exactly once.

Spies on :func:`repro.core.blockloop.run_fast` and
:meth:`PowerManagementController.run` while every golden cell
(single-core and multicore) runs, plus the per-tick hook variants of
the benchmark's PM mix and the MS-Loops model training.  There is no
second loop: each controller run is one kernel entry, and the machine
has no stepping method of its own.
"""

from __future__ import annotations

import pytest

from repro.adaptation.manager import AdaptationConfig
from repro.core import blockloop
from repro.core.controller import PowerManagementController
from repro.core.models.training import collect_training_data
from repro.exec import (
    ExperimentConfig,
    GovernorSpec,
    RunCell,
    RunPlan,
    open_session,
)
from repro.exec.cache import trained_power_model
from repro.faults import FaultPlan
from repro.platform.machine import Machine
from repro.workloads.microbenchmarks import ms_loops

from .golden_cells import BUNDLES, CELLS

#: The PM mix's single-core variants: fault injection (dropped samples,
#: failed transitions), online adaptation, measured-power feedback.
PM_FAULTS = FaultPlan.from_dict({
    "seed": 0, "sample": {"drop_prob": 0.08},
    "transition": {"fail_prob": 0.4},
})
PM_MIXED = RunPlan(
    ExperimentConfig(scale=0.1, seed=0),
    tuple(
        cell
        for workload in ("ammp", "galgel")
        for cell in (
            RunCell(workload, GovernorSpec.pm(14.5), fault_plan=PM_FAULTS),
            RunCell(workload, GovernorSpec.pm(14.5),
                    adaptation=AdaptationConfig()),
            RunCell(workload, GovernorSpec.adaptive_pm(14.5)),
        )
    ),
)


#: The PM mix's two-core variants.
PM_MIXED_MULTICORE = RunPlan(
    ExperimentConfig(scale=0.1, seed=0),
    tuple(
        cell
        for workload in ("ammp", "galgel")
        for cell in (
            RunCell(workload, GovernorSpec.pm(14.5), threads=2),
            RunCell(workload, GovernorSpec.energy_optimal(), threads=2),
        )
    ),
)


@pytest.fixture
def spies(monkeypatch):
    """Counts of controller runs and kernel entries."""
    # Model training runs controllers of its own: warm its cache so the
    # counts are the cells'.
    trained_power_model(seed=0)
    counts = {"runs": 0, "kernel": 0}
    run = PowerManagementController.run
    run_fast = blockloop.run_fast

    def spy_run(self, *args, **kwargs):
        counts["runs"] += 1
        return run(self, *args, **kwargs)

    def spy_run_fast(*args, **kwargs):
        counts["kernel"] += 1
        return run_fast(*args, **kwargs)

    monkeypatch.setattr(PowerManagementController, "run", spy_run)
    monkeypatch.setattr(blockloop, "run_fast", spy_run_fast)
    return counts


@pytest.mark.parametrize("key", sorted(CELLS))
def test_golden_cell_enters_kernel_once_per_run(key, spies):
    CELLS[key]()
    assert spies["runs"] >= 1
    assert spies["kernel"] == spies["runs"]


@pytest.mark.parametrize("key", sorted(BUNDLES))
def test_observed_cell_enters_kernel(key, spies, tmp_path):
    BUNDLES[key](tmp_path)
    assert spies["kernel"] == spies["runs"] == 1


def test_pm_mixed_single_core_variants_enter_kernel(spies):
    with open_session() as session:
        results = session.run_plan(PM_MIXED)
    assert len(results) == len(PM_MIXED)
    assert spies["kernel"] == spies["runs"] == len(PM_MIXED)


def test_pm_mixed_multicore_variants_enter_kernel(spies):
    with open_session() as session:
        results = session.run_plan(PM_MIXED_MULTICORE)
    assert len(results) == len(PM_MIXED_MULTICORE)
    assert spies["kernel"] == spies["runs"] == len(PM_MIXED_MULTICORE)


@pytest.mark.parametrize("plan,table", [
    # Per workload: faults (hook), adaptation (table), adaptive PM (table).
    (PM_MIXED, [False, True, True] * 2),
    (PM_MIXED_MULTICORE, [True] * len(PM_MIXED_MULTICORE)),
], ids=["single-core-hooks", "multicore"])
def test_pm_mixed_decision_modes(plan, table, monkeypatch):
    """PM with online adaptation, adaptive PM and the two-core PM and
    energy-optimal cells decide from the kernel's tables; faults take
    hook mode.  A silent fall back to hook mode shows here, not only as
    time."""
    modes = []
    table_mode = blockloop._table_mode

    def spy(st):
        modes.append(table_mode(st))
        return modes[-1]

    monkeypatch.setattr(blockloop, "_table_mode", spy)
    with open_session() as session:
        session.run_plan(plan)
    assert modes == table


def test_training_runs_each_pass_through_the_kernel(spies):
    """MS-Loops training characterizes each (loop, p-state) point in two
    counter passes, each one controller run."""
    loops = ms_loops()[:1]
    points = collect_training_data(loops, duration_s=0.05)
    assert len(points) == 8
    assert spies["kernel"] == spies["runs"] == 2 * len(points)


def test_machine_has_no_stepping_api():
    """Simulated time advances only in the kernel."""
    from repro.platform import machine

    for name in ("step", "run_to_completion", "_emit_power",
                 "_advance_jitter"):
        assert not hasattr(Machine, name), name
    assert not hasattr(machine, "TickRecord")


def test_kernel_keeps_at_most_264_locals():
    """Each local past the 256th costs every access an ``EXTENDED_ARG``.

    The last locals in source order are the table-mode decision's, so a
    new local moves one more of them past the boundary and slows every
    single-core tick (``fig9``).  See the ``EXTENDED_ARG`` paragraph of
    :func:`repro.core.blockloop.run_fast`'s docstring: keep new state in
    helpers or :class:`repro.core.blockloop._Package`.
    """
    count = blockloop.run_fast.__code__.co_nlocals
    assert count <= 264, (
        f"run_fast has {count} locals (at most 264): see the "
        "EXTENDED_ARG paragraph of the run_fast docstring"
    )
