"""Tests for the shared experiment machinery: cells, the SPEC-suite
plan builders and the median-of-N pick (:mod:`repro.experiments.suite`),
and the process-wide model/measurement caches.
"""

import gc
import importlib
import pkgutil
import weakref

import pytest

from repro.adaptation.manager import AdaptationConfig
from repro.campaign.store import ResultStore, cell_digest
from repro.errors import ExperimentError
from repro.exec import (
    ExperimentConfig,
    GovernorSpec,
    RunCell,
    RunPlan,
    execute_cell,
)
from repro.exec import cache
from repro.exec.cache import trained_power_model, worst_case_power_table
from repro.exec.session import ExecSession, open_session
from repro import experiments
from repro.experiments.runner import execute_plans
from repro.experiments.suite import (
    suite_fixed,
    suite_governed,
    suite_names,
    take_suite,
)
from repro.faults.plan import FaultPlan, MeterFaults
from repro.telemetry.recorder import TelemetryRecorder


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(scale=0.05, seed=3)


def test_fixed_cell_starts_and_stays_at_frequency(config):
    result = execute_cell(
        RunCell.fixed("gzip", 1200.0), config
    )
    assert set(result.residency_s) == {1200.0}
    assert result.transitions == 0


def test_factory_cell_builds_the_governor(config):
    result = execute_cell(
        RunCell(workload="gzip", governor=GovernorSpec.fixed(800.0)),
        config,
    )
    # Starts at P0 by default, then the governor moves to 800.
    assert 800.0 in result.residency_s


def test_scale_shortens_runs(config):
    short = execute_cell(RunCell.fixed("gzip", 2000.0), config)
    longer = execute_cell(
        RunCell.fixed("gzip", 2000.0),
        ExperimentConfig(scale=0.1, seed=3),
    )
    assert longer.duration_s > short.duration_s


def test_median_run_protocol():
    cells = suite_governed(GovernorSpec.fixed(2000.0), runs=3)
    assert [(c.workload, c.seed_offset, c.rep) for c in cells[:4]] == [
        ("gzip", 0, 0), ("gzip", 100, 1), ("gzip", 200, 2), ("vpr", 0, 0),
    ]
    results = ExecSession().run_cells(
        cells, ExperimentConfig(scale=0.02, seed=3, runs=3)
    )
    picked = take_suite(iter(results), runs=3)
    for index, name in enumerate(suite_names()):
        reps = sorted(
            results[3 * index:3 * index + 3], key=lambda r: r.duration_s
        )
        assert picked[name] is reps[1]


def test_median_requires_at_least_one_run():
    with pytest.raises(ExperimentError):
        suite_governed(GovernorSpec.fixed(2000.0), runs=0)


def test_trained_model_is_cached():
    assert trained_power_model(seed=0) is trained_power_model(seed=0)


def test_training_set_is_collected_once_per_seed(monkeypatch):
    from repro.core.models import training

    monkeypatch.setattr(cache, "_POINTS", {})
    monkeypatch.setattr(cache, "_MODELS", {})
    calls = []
    collect = training.collect_training_data
    monkeypatch.setattr(
        training,
        "collect_training_data",
        lambda **kwargs: calls.append(kwargs) or collect(**kwargs),
    )
    model = trained_power_model(seed=0)
    assert cache.training_points(seed=0) is cache.training_points(seed=0)
    assert trained_power_model(seed=0) is model
    assert len(calls) == 1


def test_worst_case_table_covers_all_pstates():
    table = worst_case_power_table()
    assert set(table) == {
        600.0, 800.0, 1000.0, 1200.0, 1400.0, 1600.0, 1800.0, 2000.0,
    }


def test_worst_case_table_is_measured_clean_under_any_session(
    tmp_path, monkeypatch
):
    """The table is cached under (scale, seed) alone, so no session
    option may reach the runs that measure it."""
    monkeypatch.setattr(cache, "_WORST_CASE", {})
    faults = FaultPlan(
        seed=3, meter=MeterFaults(dropout_prob=0.2, spike_prob=0.2)
    )
    recorder = TelemetryRecorder()
    with ResultStore(tmp_path / "ckpt") as store:
        with open_session(
            telemetry=recorder,
            faults=faults,
            adaptation=AdaptationConfig(),
            store=store,
        ):
            inside = dict(worst_case_power_table(scale=0.2, seed=0))
        stored = len(store.object_digests())
    monkeypatch.setattr(cache, "_WORST_CASE", {})
    clean = dict(worst_case_power_table(scale=0.2, seed=0))
    assert clean[600.0] == pytest.approx(3.327, abs=5e-4)
    assert inside == clean
    assert stored == 0
    assert recorder.metrics.counter("controller.ticks").value == 0


def test_suite_order_is_canonical(config):
    results = ExecSession().run_cells(
        suite_fixed(2000.0), ExperimentConfig(scale=0.02)
    )
    order = list(take_suite(iter(results)))
    assert order == list(suite_names())
    assert len(order) == 26
    assert order[0] == "gzip"


def test_execute_plans_shares_cells_and_holds_them_until_last_use():
    config = ExperimentConfig(scale=0.02)
    shared, alone = (
        RunCell.fixed("gzip", 2000.0), RunCell.fixed("mcf", 2000.0),
    )
    plans = execute_plans([
        RunPlan(config=config, cells=(shared, alone, shared)),
        RunPlan(config=config, cells=(shared,)),
    ])
    first = list(next(plans))
    assert first[2] is first[0]  # one run per distinct cell
    kept, dropped = weakref.ref(first[0]), weakref.ref(first[1])
    del first
    gc.collect()
    assert dropped() is None  # no later plan lists the mcf cell
    (second,) = next(plans)
    assert second is kept()


def test_execute_plans_under_a_store_holds_no_dropped_result(tmp_path):
    """A serial plan under a store yields its results unbound: once the
    caller drops one, the suspended plan does not keep it alive."""
    config = ExperimentConfig(scale=0.02)
    shared, alone = (
        RunCell.fixed("gzip", 2000.0), RunCell.fixed("mcf", 2000.0),
    )
    with ResultStore(tmp_path / "store", create=True) as store:
        with open_session(store=store):
            plans = execute_plans([
                RunPlan(config=config, cells=(shared, alone, shared)),
                RunPlan(config=config, cells=(shared,)),
            ])
            first = list(next(plans))
            dropped = weakref.ref(first[1])
            del first
            gc.collect()
            assert dropped() is None
            assert len(list(next(plans))) == 1


def test_execute_plans_digests_each_cell_once_under_a_store(
    monkeypatch, tmp_path
):
    """The session looks cells up by the digests ``execute_plans``
    keyed them with, computed once the session stamped them."""
    from repro.campaign import store as store_module

    calls = []
    real = store_module.cell_digest

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(store_module, "cell_digest", counted)
    config = ExperimentConfig(scale=0.02)
    plans = [
        RunPlan(config=config, cells=(RunCell.fixed("gzip", 2000.0),)),
        RunPlan(config=config, cells=(
            RunCell.fixed("gzip", 2000.0), RunCell.fixed("mcf", 2000.0),
        )),
    ]
    faults = FaultPlan(seed=1, meter=MeterFaults(spike_prob=0.1))
    with ResultStore(tmp_path / "store") as store:
        with open_session(store=store, faults=faults):
            for results in execute_plans(plans):
                list(results)
        stored = store.object_digests()
    assert len(calls) == 3
    monkeypatch.setattr(store_module, "cell_digest", real)
    resolved = [plan.stamp(fault_plan=faults) for plan in plans]
    assert stored == sorted(
        set(store_module.plan_digests(resolved[0]))
        | set(store_module.plan_digests(resolved[1]))
    )


def test_seed_offsets_change_trajectories(config):
    a = execute_cell(
        RunCell.fixed("galgel", 2000.0, seed_offset=0),
        config,
    )
    b = execute_cell(
        RunCell.fixed("galgel", 2000.0, seed_offset=100),
        config,
    )
    assert a.measured_energy_j != b.measured_energy_j



def test_deprecated_names_not_exported():
    import repro.experiments as experiments

    assert "run_governed" not in experiments.__all__
    assert "median_run" not in experiments.__all__
    assert "RunCell" not in dir(experiments)


SECTIONS = [
    info.name for info in pkgutil.iter_modules(experiments.__path__)
    if hasattr(
        importlib.import_module(f"repro.experiments.{info.name}"), "plan"
    )
]


@pytest.mark.parametrize("name", SECTIONS)
def test_every_section_cell_has_a_digest(name):
    """Every report cell can be stored: no section plans an inline
    workload, a schedule or a factory governor."""
    plan = importlib.import_module(f"repro.experiments.{name}").plan()
    for cell in plan.cells:
        assert len(cell_digest(cell, plan)) == 64, cell.label
