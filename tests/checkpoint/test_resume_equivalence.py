"""The headline guarantee: kill anywhere, resume, finish bit-identical.

Resume works at cell granularity: a session with a result store puts
every completed run into it, and a resumed session serves the stored
cells and reruns the rest from scratch.  These tests simulate the kill
in-process by truncating ``results.log`` at (and past) record
boundaries, then resume and compare float-exact digests against an
uninterrupted run -- including the instrumented variant where
telemetry, fault injection and online adaptation are all live.
"""

from __future__ import annotations

import shutil

import pytest

from repro.adaptation.manager import AdaptationConfig
from repro.campaign.store import RESULTS_LOG, ResultStore
from repro.checkpoint import run_result_digest
from repro.checkpoint.format import read_records
from repro.cli import main
from repro.exec import ExperimentConfig, GovernorSpec, RunPlan, open_session
from repro.faults.plan import FaultPlan, MeterFaults, SampleFaults
from repro.telemetry.recorder import TelemetryRecorder

PLAN = RunPlan.sweep(
    ("ammp", "gzip"),
    [GovernorSpec.pm(14.5, power_model="paper"), GovernorSpec.ps(0.8)],
    ExperimentConfig(scale=0.3, seed=11),
)

FAULTS = FaultPlan(
    seed=3,
    sample=SampleFaults(drop_prob=0.05, duplicate_prob=0.03,
                        garble_prob=0.02),
    meter=MeterFaults(dropout_prob=0.05, spike_prob=0.03,
                      drift_rate_per_s=0.02, drift_start_s=0.2),
)


def _run(store=None, telemetry=None, hostile=False):
    """Run :data:`PLAN`; returns the per-cell digests."""
    options = (
        dict(faults=FAULTS, adaptation=AdaptationConfig()) if hostile
        else {}
    )
    with open_session(
        telemetry=telemetry, store=store, **options
    ) as session:
        results = session.run_plan(PLAN)
    return [run_result_digest(result) for result in results]


def _checkpointed_run(directory, telemetry=None, hostile=False):
    with ResultStore(directory) as store:
        return _run(store, telemetry, hostile)


def _resumed_run(directory, telemetry=None, hostile=False):
    with ResultStore(directory, create=False) as store:
        return _run(store, telemetry, hostile), store.hits


def _records(directory):
    return read_records(directory / RESULTS_LOG)


def _truncate(directory, offset):
    with open(directory / RESULTS_LOG, "r+b") as handle:
        handle.truncate(offset)


def test_checkpointing_does_not_perturb_the_run(tmp_path):
    baseline = _run()
    assert _checkpointed_run(tmp_path / "j") == baseline
    assert len(_records(tmp_path / "j")) == len(PLAN)


def test_resume_from_every_checkpoint_is_bit_identical(tmp_path):
    baseline = _run()
    source = tmp_path / "j"
    _checkpointed_run(source)
    records = _records(source)
    assert len(records) == len(PLAN)
    for index, record in enumerate(records):
        copy = tmp_path / f"cut-{index}"
        shutil.copytree(source, copy)
        # Mid-record garbage past the durable prefix = torn tail.
        torn = 7 if index + 1 < len(records) else 0
        _truncate(copy, record.end_offset + torn)
        digests, replayed = _resumed_run(copy)
        assert digests == baseline
        assert replayed == index + 1


def test_instrumented_hostile_resume_matches_metrics(tmp_path):
    tel_base = TelemetryRecorder()
    baseline = _run(telemetry=tel_base, hostile=True)
    baseline_metrics = tel_base.metrics.snapshot()

    source = tmp_path / "j"
    tel_full = TelemetryRecorder()
    assert _checkpointed_run(source, tel_full, hostile=True) == baseline
    assert tel_full.metrics.snapshot() == baseline_metrics

    middle = _records(source)[len(PLAN) // 2]
    copy = tmp_path / "cut"
    shutil.copytree(source, copy)
    _truncate(copy, middle.end_offset + 5)
    tel_resumed = TelemetryRecorder()
    digests, _ = _resumed_run(copy, tel_resumed, hostile=True)
    assert digests == baseline
    # The restored registry plus the rerun cells reproduce the
    # uninterrupted run's final metrics exactly.
    assert tel_resumed.metrics.snapshot() == baseline_metrics


def test_resume_rejects_experiment_journal(tmp_path, capsys):
    ResultStore(tmp_path / "j", spec={"experiment": "fig2"}).close()
    assert main(["run", "--resume", str(tmp_path / "j")]) == 1
    assert "experiment" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run"], ["experiment"]])
@pytest.mark.parametrize("leftover", ["manifest.json", "results.journal"])
def test_resume_refuses_an_old_results_journal(
    tmp_path, capsys, command, leftover
):
    """A journal directory of an older release is refused with a
    pointed error, not converted or mistaken for an empty store."""
    directory = tmp_path / "j"
    directory.mkdir()
    (directory / "manifest.json").write_text(
        '{"format": 1, "kind": "experiment", "spec": {}}\n'
    )
    (directory / leftover).touch()
    assert main([*command, "--resume", str(directory)]) == 1
    err = capsys.readouterr().err
    assert str(directory / "manifest.json") in err
    assert "--checkpoint" in err
    assert "not a campaign store" not in err


@pytest.mark.parametrize("workers", [0, 2])
def test_multicore_cells_archive_and_replay(tmp_path, workers):
    """``threads > 1`` cells archive and replay like single-core ones."""
    plan = RunPlan.sweep(
        ("ammp", "swim"),
        [GovernorSpec.pm(14.5, power_model="paper"),
         GovernorSpec.energy_optimal()],
        ExperimentConfig(scale=0.1, seed=2),
        threads=(2,),
    )
    with open_session() as session:
        baseline = [run_result_digest(r) for r in session.run_plan(plan)]

    directory = tmp_path / "j"
    with ResultStore(directory) as store:
        with open_session(workers=workers, store=store) as session:
            first = [run_result_digest(r) for r in session.run_plan(plan)]
    with ResultStore(directory, create=False) as store:
        with open_session(workers=workers, store=store) as session:
            replayed = [run_result_digest(r) for r in session.run_plan(plan)]
        assert store.hits == len(plan)
    assert first == replayed == baseline
