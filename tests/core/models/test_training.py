"""Tests for the training pipeline (fit quality, not calibration --
paper-table reproduction lives in tests/platform/test_calibration.py)."""

import hashlib

import numpy as np
import pytest

from repro.core.models.component_power import collect_component_training_data
from repro.core.models.training import (
    TrainingPoint,
    _l1_linear_fit,
    collect_training_data,
    exponent_error_curve,
    fit_performance_model,
    fit_power_model,
    local_minima,
    summarize_points,
)
from repro.errors import TrainingError
from repro.platform.machine import MachineConfig
from repro.workloads.microbenchmarks import ms_loops


def synthetic_points(alpha=2.0, beta=10.0, freq=2000.0, n=12):
    rng = np.random.default_rng(0)
    points = []
    for i in range(n):
        dpc = 0.1 + 1.8 * i / (n - 1)
        power = alpha * dpc + beta + rng.normal(0, 0.02)
        points.append(
            TrainingPoint(
                workload=f"w{i}", frequency_mhz=freq, dpc=dpc, ipc=dpc / 1.3,
                dcu=0.1, measured_power_w=power,
            )
        )
    return points


class TestL1Fit:
    def test_recovers_known_line(self):
        x = np.linspace(0.1, 2.0, 20)
        y = 3.0 * x + 5.0
        slope, intercept = _l1_linear_fit(x, y)
        assert slope == pytest.approx(3.0, abs=1e-3)
        assert intercept == pytest.approx(5.0, abs=1e-3)

    def test_robust_to_one_outlier(self):
        # L1 regression shrugs off a single wild point where least
        # squares would tilt; that robustness is why the paper minimizes
        # absolute error.
        x = np.linspace(0.1, 2.0, 21)
        y = 3.0 * x + 5.0
        y[10] += 30.0
        slope, intercept = _l1_linear_fit(x, y)
        assert slope == pytest.approx(3.0, abs=0.1)
        assert intercept == pytest.approx(5.0, abs=0.1)

    def test_too_few_points(self):
        with pytest.raises(TrainingError):
            _l1_linear_fit(np.array([1.0]), np.array([2.0]))


class TestFitPowerModel:
    def test_fits_synthetic_line(self):
        model = fit_power_model(synthetic_points())
        assert model.alpha(2000.0) == pytest.approx(2.0, abs=0.05)
        assert model.beta(2000.0) == pytest.approx(10.0, abs=0.05)

    def test_empty_rejected(self):
        with pytest.raises(TrainingError):
            fit_power_model([])

    def test_sparse_pstate_rejected(self):
        with pytest.raises(TrainingError, match="training points"):
            fit_power_model(synthetic_points(n=2))


class TestCollect:
    @pytest.fixture(scope="class")
    def points(self):
        return collect_training_data(
            workloads=ms_loops()[:4], duration_s=0.1
        )

    def test_point_per_workload_pstate(self, points):
        assert len(points) == 4 * 8

    def test_rates_positive_and_sane(self, points):
        for p in points:
            assert 0 < p.ipc <= 3.0
            assert p.dpc >= p.ipc * 0.9
            assert 0 <= p.dcu <= 4.0
            assert 2.0 < p.measured_power_w < 25.0

    def test_dcu_per_ipc_accessor(self, points):
        for p in points:
            assert p.dcu_per_ipc == pytest.approx(p.dcu / p.ipc)

    def test_summarize_points(self, points):
        spread = summarize_points(points)
        assert set(spread) == {
            600.0, 800.0, 1000.0, 1200.0, 1400.0, 1600.0, 1800.0, 2000.0,
        }
        for low, high in spread.values():
            assert low <= high


class TestPerformanceFit:
    @pytest.fixture(scope="class")
    def points(self):
        return collect_training_data(duration_s=0.1)

    def test_fitted_exponent_in_paper_range(self, points):
        model = fit_performance_model(
            points,
            thresholds=(1.0, 1.21, 1.5),
            exponents=tuple(np.arange(0.4, 1.0, 0.02)),
        )
        # The paper's local minima were 0.59 and 0.81; our fit should
        # land in that neighbourhood.
        assert 0.5 <= model.memory_exponent <= 0.95

    def test_error_curve_shape(self, points):
        curve = exponent_error_curve(
            points, exponents=tuple(np.arange(0.4, 1.0, 0.05))
        )
        errors = [e for _, e in curve]
        assert all(e >= 0 for e in errors)
        minima = local_minima(curve)
        assert len(minima) >= 1

    def test_local_minima_detection(self):
        curve = [(0.1, 5.0), (0.2, 2.0), (0.3, 3.0), (0.4, 1.0), (0.5, 4.0)]
        assert local_minima(curve) == (0.2, 0.4)


def test_training_error_on_zero_duration():
    with pytest.raises(TrainingError):
        collect_training_data(
            workloads=ms_loops()[:1], duration_s=0.0, warmup_ticks=0
        )


#: sha256 of the ``repr`` of training sets, recorded when training
#: still stepped the machine itself, tick by tick, outside the tick
#: kernel.  The default set (seed 0) is pinned by the report golden.
PINNED = {
    "seed-1": (
        "851ee6d17b50cd6e68d8adf70e5332c9bd44a9432068c4e4dfdbd4e818885778",
        lambda: collect_training_data(config=MachineConfig(seed=1)),
    ),
    "duration-0.1": (
        "ce6a9c081ff0f448a18011e870e56e8f926bd19b14d598d8e146abe11838ffcb",
        lambda: collect_training_data(duration_s=0.1),
    ),
    "component": (
        "52e7046746805f527a59fda509edbb6b2694d79c1f645e3f7fc77903e1006373",
        collect_component_training_data,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_training_set_matches_pinned_hash(name):
    expected, collect = PINNED[name]
    assert hashlib.sha256(repr(collect()).encode()).hexdigest() == expected
