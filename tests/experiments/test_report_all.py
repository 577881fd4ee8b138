"""Tests for the one-shot reproduction report and the ablation helpers."""

import hashlib
import json
import pathlib
import re

from repro import cli
from repro.campaign.store import cell_digest
from repro.exec import ExperimentConfig, RunPlan
from repro.exec import session as exec_session
from repro.experiments.ablations import (
    adaptive_pm_ablation,
    dbs_ablation,
    guardband_ablation,
    hysteresis_ablation,
    render_rows,
)
from repro.experiments.report_all import generate

FAST = ExperimentConfig(scale=0.1)

#: The benchmark's pinned digests (read only).
BENCH_GOLDEN = pathlib.Path(__file__).parents[2] / "bench" / "golden.json"

#: The ``_x.x s_`` timing line under each report section.
TIMING_LINE = re.compile(r"^_\d+\.\d s_$", re.MULTILINE)


def test_default_report_matches_bench_golden():
    """The default report's text, timings aside, is the one the
    benchmark pins for seed 0."""
    golden = json.loads(BENCH_GOLDEN.read_text())["cold-cli"]["0"]["report"]
    text = TIMING_LINE.sub("", generate(seed=0))
    assert hashlib.sha256(text.encode()).hexdigest() == golden


def test_report_runs_each_distinct_cell_once(monkeypatch):
    """Figs. 9, 10 and 11 plan overlapping cells; each runs once."""
    executed = []
    execute = exec_session.execute_cell

    def counting(cell, config, **kwargs):
        executed.append(cell_digest(cell, RunPlan(config=config, cells=())))
        return execute(cell, config, **kwargs)

    monkeypatch.setattr(exec_session, "execute_cell", counting)
    generate(default_scale=0.1, sections=["fig9", "fig10", "fig11"])
    # 2 fixed sweeps + 4 floors x 2 exponents, 26 benchmarks each.
    assert len(executed) == 26 * (2 + 4 + 4)
    assert len(set(executed)) == len(executed)


def test_experiment_prints_the_report_section(capsys):
    assert cli.main(["experiment", "fig10", "--scale", "0.1"]) == 0
    printed = capsys.readouterr().out
    report = generate(default_scale=0.1, sections=["fig10"])
    body = report.split("```\n", 1)[1].split("\n```", 1)[0]
    assert printed == body + "\n"


class TestReport:
    def test_restricted_report_contains_sections(self):
        text = generate(default_scale=0.1, sections=["table4", "fig2"])
        assert "# Reproduction report" in text
        assert "Table IV" in text
        assert "Fig. 2" in text
        assert "Fig. 7" not in text

    def test_unknown_section_filter_yields_empty_body(self):
        text = generate(default_scale=0.1, sections=["nonexistent"])
        assert "## " not in text


class TestAblationHelpers:
    def test_hysteresis_rows(self):
        rows = hysteresis_ablation(FAST, windows=(1, 10))
        assert [r.label for r in rows] == [
            "raise_window=1", "raise_window=10",
        ]
        assert all(r.duration_s > 0 for r in rows)

    def test_guardband_rows(self):
        rows = guardband_ablation(FAST, guardbands=(0.0, 0.5))
        assert len(rows) == 2
        assert rows[0].label == "guardband=0.0W"

    def test_adaptive_rows(self):
        outcome = adaptive_pm_ablation(FAST)
        assert set(outcome) == {"static_model", "adaptive"}

    def test_dbs_comparison_shape(self):
        outcome = dbs_ablation(ExperimentConfig(scale=0.2))
        assert abs(outcome.dbs_savings) < 0.05
        assert outcome.ps_savings > 0.05

    def test_render_rows(self):
        rows = guardband_ablation(FAST, guardbands=(0.5,))
        out = render_rows("Title", rows)
        assert out.startswith("Title")
        assert "guardband" in out
