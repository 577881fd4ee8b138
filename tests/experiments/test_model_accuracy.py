"""Tests for the per-sample model-accuracy experiment and the
characterization table."""

import pytest

from repro.experiments import (
    characterization,
    model_accuracy,
    run_section,
)
from repro.exec import ExperimentConfig


@pytest.fixture(scope="module")
def accuracy():
    return run_section(model_accuracy, ExperimentConfig(scale=0.15))


class TestModelAccuracy:
    def test_covers_whole_suite(self, accuracy):
        assert len(accuracy.per_workload) == 26
        assert all(s.samples > 5 for s in accuracy.per_workload.values())

    def test_suite_error_is_guardband_scale(self, accuracy):
        # The 0.5 W guardband exists to cover per-sample error; our
        # suite MAE must sit in that regime, not an order off.
        assert 0.1 < accuracy.suite_mae_w < 1.5

    def test_galgel_is_the_underestimated_outlier(self, accuracy):
        worst = accuracy.worst_underestimated()
        assert worst.workload == "galgel"
        assert worst.bias_w > 0.3

    def test_most_workloads_are_overestimated(self, accuracy):
        # The conservative envelope: the model errs high for nearly
        # everything except the FP-hiding outlier.
        overestimated = [
            s for s in accuracy.per_workload.values() if not s.underestimated
        ]
        assert len(overestimated) >= 15

    def test_p95_bounds_mae(self, accuracy):
        for stats in accuracy.per_workload.values():
            assert stats.p95_abs_w >= stats.mae_w - 1e-9

    def test_render(self, accuracy):
        out = model_accuracy.render(accuracy)
        assert "galgel" in out and "suite MAE" in out


class TestCharacterization:
    @pytest.fixture(scope="class")
    def result(self):
        return run_section(characterization)

    def test_memory_class_matches_paper_grouping(self, result):
        memory = set(result.memory_class())
        assert {"swim", "lucas", "equake", "mcf", "applu", "art"} <= memory
        assert {"sixtrack", "crafty", "eon", "mesa", "perlbmk"}.isdisjoint(
            memory
        )

    def test_sensitivity_order_has_the_paper_extremes(self, result):
        order = result.frequency_sensitivity_order()
        assert order.index("swim") < 5
        assert order.index("sixtrack") >= len(order) - 3

    def test_render(self, result):
        out = characterization.render(result)
        assert "DCU/IPC" in out
        assert "PS@80%" in out
