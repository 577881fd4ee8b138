"""Tests for the shared experiment machinery.

``repro.experiments.runner`` only hosts the median-of-N protocol;
everything else lives in :mod:`repro.exec`.
"""

import pytest

from repro.adaptation.manager import AdaptationConfig
from repro.checkpoint.session import ExperimentCheckpointSession
from repro.core.governors.unconstrained import FixedFrequency
from repro.errors import ExperimentError
from repro.exec import (
    ExperimentConfig,
    RunCell,
    as_governor_spec,
    execute_cell,
)
from repro.exec import cache
from repro.exec.cache import trained_power_model, worst_case_power_table
from repro.exec.session import open_session
from repro.experiments.runner import median_run
from repro.experiments.suite import run_suite_fixed, suite_order
from repro.faults.plan import FaultPlan, MeterFaults
from repro.telemetry.recorder import TelemetryRecorder
from repro.workloads.registry import get_workload


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(scale=0.05, seed=3)


def test_fixed_cell_starts_and_stays_at_frequency(config):
    result = execute_cell(
        RunCell.fixed(get_workload("gzip"), 1200.0), config
    )
    assert set(result.residency_s) == {1200.0}
    assert result.transitions == 0


def test_factory_cell_builds_the_governor(config):
    result = execute_cell(
        RunCell(
            workload=get_workload("gzip"),
            governor=as_governor_spec(
                lambda table: FixedFrequency(table, 800.0)
            ),
        ),
        config,
    )
    # Starts at P0 by default, then the governor moves to 800.
    assert 800.0 in result.residency_s


def test_scale_shortens_runs(config):
    short = execute_cell(RunCell.fixed(get_workload("gzip"), 2000.0), config)
    longer = execute_cell(
        RunCell.fixed(get_workload("gzip"), 2000.0),
        ExperimentConfig(scale=0.1, seed=3),
    )
    assert longer.duration_s > short.duration_s


def test_median_run_protocol(config):
    cfg = ExperimentConfig(scale=0.05, seed=3, runs=3)
    result = median_run(
        get_workload("gcc"), lambda table: FixedFrequency(table, 2000.0), cfg
    )
    assert result.duration_s > 0


def test_median_requires_at_least_one_run():
    cfg = ExperimentConfig(runs=0)
    with pytest.raises(ExperimentError):
        median_run(
            get_workload("gcc"), lambda t: FixedFrequency(t, 2000.0), cfg
        )


def test_trained_model_is_cached():
    assert trained_power_model(seed=0) is trained_power_model(seed=0)


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
    with ExperimentCheckpointSession.create(
        tmp_path / "ckpt", experiment="worst-case"
    ) as ckpt:
        with open_session(
            telemetry=recorder,
            faults=faults,
            adaptation=AdaptationConfig(),
            checkpoint=ckpt,
        ):
            inside = dict(worst_case_power_table(scale=0.2, seed=0))
        slots = ckpt.archived_count
    monkeypatch.setattr(cache, "_WORST_CASE", {})
    clean = dict(worst_case_power_table(scale=0.2, seed=0))
    assert clean[600.0] == pytest.approx(3.327, abs=5e-4)
    assert inside == clean
    assert slots == 0
    assert recorder.metrics.counter("controller.ticks").value == 0


def test_suite_order_is_canonical(config):
    results = run_suite_fixed(2000.0, ExperimentConfig(scale=0.02))
    order = suite_order(results)
    assert len(order) == 26
    assert order[0] == "gzip"


def test_seed_offsets_change_trajectories(config):
    a = execute_cell(
        RunCell.fixed(get_workload("galgel"), 2000.0, seed_offset=0),
        config,
    )
    b = execute_cell(
        RunCell.fixed(get_workload("galgel"), 2000.0, seed_offset=100),
        config,
    )
    assert a.measured_energy_j != b.measured_energy_j



def test_deprecated_names_not_exported():
    import repro.experiments as experiments

    assert "run_governed" not in experiments.__all__
    assert "RunCell" not in dir(experiments)
