"""Acceptance tests: the adaptive control loop end to end.

Validates the ISSUE's acceptance criteria:

* under the meter-drift plan, adaptive PM's violation fraction is
  *strictly* lower than frozen PM's, with drift detections and
  recalibrations on the record;
* with adaptation disengaged (incompatible governor, or no ``--adapt``)
  existing runs are bit-for-bit identical -- the adaptation layer costs
  nothing when off;
* ``REPRO_ADAPT_SMOKE=1`` exercises the CLI path end to end.
"""

import dataclasses
import os

import pytest

from repro.adaptation.manager import AdaptationConfig
from repro.cli import main
from repro.exec import (
    ExperimentConfig,
    GovernorSpec,
    RunCell,
    execute_cell,
    open_session,
    prepare_cell,
)
from repro.experiments import adaptation_drift


@pytest.fixture(scope="module")
def drift_result():
    return adaptation_drift.run()


class TestAdaptationBeatsFrozenUnderDrift:
    def test_adaptive_violations_strictly_lower(self, drift_result):
        assert (
            drift_result.adaptive.violation_fraction
            < drift_result.frozen.violation_fraction
        )
        assert drift_result.adaptation_wins

    def test_frozen_model_suffers_badly(self, drift_result):
        # The drill is only meaningful if the drift genuinely defeats
        # the offline calibration: the frozen leg must spend a large
        # share of the run above the limit ...
        assert drift_result.frozen.violation_fraction > 0.25
        # ... while the adaptive leg holds it nearly everywhere.
        assert drift_result.adaptive.violation_fraction < 0.05

    def test_adaptation_machinery_actually_engaged(self, drift_result):
        summary = drift_result.adaptation
        assert summary["engaged"] is True
        assert summary["drift_detections"] >= 1
        assert summary["recalibrations"] >= 1
        assert summary["registered_versions"] >= 2

    def test_render_reports_the_verdict(self, drift_result):
        text = adaptation_drift.render(drift_result)
        assert "frozen" in text and "adaptive" in text
        assert "adaptation held the limit" in text


class TestInertWhenDisengaged:
    def test_incompatible_governor_runs_bit_for_bit_identical(self):
        """DBS has no power model: the manager declines to engage and
        the run must match a manager-free run exactly."""
        config = ExperimentConfig(scale=0.1, seed=3, keep_trace=True)
        cell = RunCell(workload="gzip", governor=GovernorSpec.dbs())
        baseline = execute_cell(cell, config)
        prepared = prepare_cell(
            dataclasses.replace(cell, adaptation=AdaptationConfig()), config
        )
        managed = prepared.execute()
        assert not prepared.adaptation.engaged
        assert managed.trace == baseline.trace
        assert managed.samples == baseline.samples
        assert managed.measured_energy_j == baseline.measured_energy_j
        assert managed.residency_s == baseline.residency_s


@pytest.mark.xfail(strict=True, reason=(
    'ROADMAP "Adapt a package to package power": on a multicore '
    "package the manager scores the lead core's one-core Eq. 2 "
    "estimate against package watts"
))
def test_two_core_adaptation_tracks_package_power():
    """A two-core PM's adaptation ends with a small residual.  galgel at
    seed 0 ends 12.3 W off (one drift detection, no recalibration);
    seed 1 recalibrates the one-core model to package power and ends
    0.9 W off."""
    residuals = {}
    for seed in (0, 1):
        prepared = prepare_cell(
            RunCell("galgel", GovernorSpec.pm(14.5),
                    adaptation=AdaptationConfig(), threads=2),
            ExperimentConfig(scale=1.0, seed=seed),
        )
        prepared.execute()
        residuals[seed] = prepared.adaptation.summary()["residual_mean_w"]
    assert all(abs(mean) <= 2.0 for mean in residuals.values()), residuals


@pytest.mark.skipif(
    not os.environ.get("REPRO_ADAPT_SMOKE"),
    reason="set REPRO_ADAPT_SMOKE=1 to run the adaptation smoke drill",
)
def test_adaptation_smoke(tmp_path, capsys):
    """CI smoke: the drift drill and an adaptive run via the CLI."""
    assert main(["experiment", "drift"]) == 0
    out = capsys.readouterr().out
    assert "verdict: adaptation held the limit" in out

    registry = tmp_path / "registry.json"
    assert main([
        "run", "FMA-256KB", "--governor", "pm", "--limit", "13.5",
        "--scale", "32", "--adapt", "--registry", str(registry),
    ]) == 0
    assert registry.exists()
    assert "adaptation   :" in capsys.readouterr().out


def test_frozen_leg_stays_frozen_under_an_adapting_session():
    """``experiment drift --adapt`` must not adapt the frozen leg."""
    config = ExperimentConfig(scale=24.0)
    bare = adaptation_drift.run(config)
    with open_session(adaptation=AdaptationConfig()):
        adapting = adaptation_drift.run(config)
    assert adapting.frozen == bare.frozen
    # At this scale adaptation engages, so a leak would show.
    assert adapting.adaptive != adapting.frozen
