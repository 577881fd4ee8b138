"""Campaign engine: resume from the store, aliases, quarantine, retry."""

from __future__ import annotations

import os

from repro.campaign import Campaign, ResultStore, run_campaign
from repro.checkpoint.digest import run_result_digest
from repro.exec.core import execute_cell
from repro.exec.plan import ExperimentConfig, GovernorSpec, RunCell, RunPlan
from repro.telemetry.recorder import TelemetryRecorder

CONFIG = ExperimentConfig(scale=0.05, seed=1)

HEALTHY = (
    RunCell(workload="ammp", governor=GovernorSpec.fixed(1600.0)),
    RunCell(workload="mcf", governor=GovernorSpec.fixed(2000.0)),
)
POISON = RunCell(
    workload="trace:/nonexistent/poison.csv",
    governor=GovernorSpec.fixed(1000.0),
)


def test_fresh_run_then_resume_all_cached(tmp_path):
    plan = RunPlan(config=CONFIG, cells=HEALTHY)
    store = ResultStore(tmp_path / "store")

    first = run_campaign(plan, store, workers=2)
    assert first.executed == (0, 1)
    assert first.cached == ()
    assert first.resumed is False
    assert first.degraded is False
    assert first.completed == 2

    second = run_campaign(plan, ResultStore(tmp_path / "store"), workers=2)
    assert second.executed == ()
    assert second.cached == (0, 1)
    assert second.resumed is True
    assert second.degraded is False
    # Cache hits are bit-identical to a serial execution.
    for index, cell in enumerate(plan.cells):
        serial = run_result_digest(
            execute_cell(cell, CONFIG)
        )
        assert run_result_digest(second.results[index]) == serial


def test_poison_quarantined_and_stays_quarantined(tmp_path):
    plan = RunPlan(config=CONFIG, cells=HEALTHY + (POISON,))
    store = ResultStore(tmp_path / "store")

    first = run_campaign(plan, store, workers=2, max_attempts=2,
                         backoff_s=0.01)
    assert first.quarantined == (2,)
    assert first.completed == 2
    assert first.degraded is True
    assert first.results[2] is None
    record = store.quarantine_record(first.digests[2])
    assert record["permanent"] is True
    assert record["digest"] == first.digests[2]
    assert "quarantined_at" in record

    # A resume serves the healthy cells from cache and does NOT retry
    # the quarantined one.
    second = run_campaign(plan, ResultStore(tmp_path / "store"), workers=2)
    assert second.cached == (0, 1)
    assert second.executed == ()
    assert second.quarantined == (2,)
    assert second.resumed is True


def test_retry_quarantined_clears_records(tmp_path):
    plan = RunPlan(config=CONFIG, cells=(POISON,))
    campaign = Campaign(
        plan, tmp_path / "store", workers=1, max_attempts=2, backoff_s=0.01
    )
    first = campaign.run()
    assert first.quarantined == (0,)
    assert campaign.retry_quarantined() == 1
    assert campaign.store.quarantined_digests() == []
    # Deterministic poison fails again on retry -- and is re-quarantined.
    second = campaign.run()
    assert second.quarantined == (0,)


def test_duplicate_cells_share_one_execution(tmp_path):
    cell = HEALTHY[0]
    plan = RunPlan(config=CONFIG, cells=(cell, HEALTHY[1], cell))
    result = run_campaign(plan, tmp_path / "store", workers=2)
    assert result.digests[0] == result.digests[2]
    assert 2 not in result.executed  # the alias never dispatched
    assert 2 in result.cached
    assert result.completed == 3
    assert run_result_digest(result.results[0]) == run_result_digest(
        result.results[2]
    )


def test_resume_publishes_campaign_resumed(tmp_path):
    plan = RunPlan(config=CONFIG, cells=HEALTHY)
    run_campaign(plan, tmp_path / "store", workers=2)

    captured = []
    telemetry = TelemetryRecorder()
    telemetry.bus.subscribe(captured.append)
    run_campaign(
        plan, ResultStore(tmp_path / "store"), workers=2,
        telemetry=telemetry,
    )
    resumed = [e for e in captured if e.kind == "campaign_resumed"]
    assert len(resumed) == 1
    assert resumed[0].total == 2
    assert resumed[0].cached == 2
    assert resumed[0].quarantined == 0


def test_result_to_dict_summary(tmp_path):
    plan = RunPlan(config=CONFIG, cells=HEALTHY + (POISON,))
    result = run_campaign(plan, tmp_path / "store", workers=2,
                          max_attempts=2, backoff_s=0.01)
    summary = result.to_dict()
    assert summary["total"] == 3
    assert summary["executed"] == 2
    assert summary["quarantined"] == 1
    assert summary["completed"] == 2
    assert summary["degraded"] is True
    assert summary["lost"] == 0


def _sweep(count: int) -> RunPlan:
    cells = tuple(
        RunCell(workload=workload, governor=GovernorSpec.fixed(freq))
        for workload in (
            "ammp", "applu", "apsi", "art", "bzip2", "crafty", "equake",
            "mcf",
        )
        for freq in (1000.0, 1600.0, 2000.0)
    )
    return RunPlan(config=CONFIG, cells=cells[:count])


def test_fsyncs_per_invocation_not_per_cell(tmp_path, monkeypatch):
    calls = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        calls.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    fresh = {}
    for count in (4, 24):
        calls.clear()
        result = run_campaign(
            _sweep(count), tmp_path / f"store-{count}", workers=1
        )
        assert len(result.executed) == count
        fresh[count] = len(calls)
    assert fresh[4] == fresh[24]
    # A resume served fully from the store writes nothing.
    calls.clear()
    resumed = run_campaign(_sweep(24), tmp_path / "store-24", workers=1)
    assert len(resumed.cached) == 24
    assert calls == []
