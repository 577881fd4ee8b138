"""CLI surface of the execution engine: ``run --plan`` and ``--workers``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.exec.plan import ExperimentConfig, GovernorSpec, RunCell, RunPlan


def _plan_file(tmp_path, workers_cells=2):
    cells = (
        RunCell(workload="ammp", governor=GovernorSpec.fixed(1600.0)),
        RunCell(workload="mcf", governor=GovernorSpec.ps(0.8)),
    )[:workers_cells]
    plan = RunPlan(config=ExperimentConfig(scale=0.05, seed=2), cells=cells)
    path = tmp_path / "plan.json"
    path.write_text(plan.to_json())
    return path


def test_run_plan_serial(tmp_path, capsys):
    path = _plan_file(tmp_path)
    assert main(["run", "--plan", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ammp" in out and "mcf" in out


def test_run_plan_parallel_matches_serial(tmp_path, capsys):
    path = _plan_file(tmp_path)
    assert main(["run", "--plan", str(path)]) == 0
    serial = capsys.readouterr().out.splitlines()
    assert main(["run", "--plan", str(path), "--workers", "2"]) == 0
    parallel = capsys.readouterr().out.splitlines()
    # The header names the worker count; every per-cell line must match.
    assert parallel[1:] == serial[1:]


def test_run_plan_rejects_workload_argument(tmp_path, capsys):
    path = _plan_file(tmp_path)
    assert main(["run", "ammp", "--plan", str(path)]) == 1
    assert "--plan" in capsys.readouterr().err


def test_run_plan_rejects_checkpoint_options(tmp_path, capsys):
    path = _plan_file(tmp_path)
    assert main(["run", "--plan", str(path), "--checkpoint",
                 str(tmp_path / "ckpt")]) == 1
    assert "--plan" in capsys.readouterr().err


@pytest.mark.parametrize("option", [
    ["--faults", "faults.json"],
    ["--adapt"],
    ["--trace", "t.csv"],
    ["--result-json", "r.json"],
    ["--registry", "reg.json"],
    ["--model", "model.json"],
    ["--use-paper-model"],
    ["--governor", "pm"],
    ["--limit", "14.5"],
    ["--floor", "0.8"],
    ["--frequency", "2000"],
    ["--scale", "0.5"],
    ["--seed", "0"],
], ids=lambda option: option[0].lstrip("-"))
def test_run_plan_rejects_run_options(tmp_path, capsys, monkeypatch,
                                      option):
    """A plan's cells and config carry every option of its runs: a
    ``run`` flag is refused, not silently ignored, even when it names
    the single-run default."""
    path = _plan_file(tmp_path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "faults.json").write_text(json.dumps({"seed": 0}))
    assert main(["run", "--plan", str(path), *option]) == 1
    assert f"--plan cannot be combined with {option[0]}" in (
        capsys.readouterr().err
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "faults.json", "plan.json",
    ]


def test_single_run_rejects_workers(capsys):
    assert main(["run", "ammp", "--workers", "2"]) == 1
    assert "--workers applies only to --plan" in capsys.readouterr().err


def test_run_plan_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text("{broken")
    assert main(["run", "--plan", str(path)]) == 1
    assert "malformed" in capsys.readouterr().err


def test_experiment_options_reach_pool_workers(tmp_path, capsys):
    """--faults and --adapt reach every cell through the one session,
    whether it runs in process or in a pool worker."""
    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps({
        "seed": 0,
        "sample": {"drop_prob": 0.08},
        "transition": {"fail_prob": 0.4},
    }))

    def fig7(*options):
        assert main(["experiment", "fig7", "--scale", "0.05",
                     *options]) == 0
        return capsys.readouterr().out

    options = ("--faults", str(faults), "--adapt")
    serial = fig7(*options, "--workers", "0")
    pooled = fig7(*options, "--workers", "2")
    assert pooled == serial
    assert serial != fig7("--workers", "0")


def test_experiment_workers_merges_telemetry(tmp_path, capsys):
    out_dir = tmp_path / "telemetry"
    assert main([
        "experiment", "fig1", "--scale", "0.05",
        "--workers", "2", "--telemetry", str(out_dir),
    ]) == 0
    capsys.readouterr()
    assert (out_dir / "metrics.json").exists()
    workers = [p for p in out_dir.iterdir()
               if p.is_dir() and p.name.startswith("worker-")]
    assert workers
    merged = json.loads((out_dir / "metrics.json").read_text())
    assert merged["metrics"]["counters"]


def test_experiment_rejects_negative_workers(capsys):
    assert main(["experiment", "fig1", "--workers", "-1"]) == 1
    assert "--workers" in capsys.readouterr().err
