"""Campaign status: read-only snapshots and rendering."""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    ResultStore,
    campaign_status,
    render_status,
    run_campaign,
)
from repro.campaign.store import campaign_cell_spec, cell_digest
from repro.campaign.status import CAMPAIGN_EVENT_KINDS
from repro.errors import CampaignError
from repro.exec.core import execute_cell
from repro.exec.plan import ExperimentConfig, GovernorSpec, RunCell, RunPlan

CONFIG = ExperimentConfig(scale=0.05, seed=1)
PLAN = RunPlan(
    config=CONFIG,
    cells=(
        RunCell(workload="ammp", governor=GovernorSpec.fixed(1600.0)),
        RunCell(
            workload="trace:/nonexistent/poison.csv",
            governor=GovernorSpec.fixed(1000.0),
        ),
    ),
)


def test_status_counts_store_and_plan(tmp_path):
    store_root = tmp_path / "store"
    run_campaign(PLAN, store_root, workers=1, max_attempts=2,
                 backoff_s=0.01)
    data = campaign_status(store_root, plan=PLAN)
    assert data["objects"] == 1
    assert len(data["quarantined"]) == 1
    assert data["quarantined"][0]["permanent"] is True
    assert data["plan"] == {
        "total": 2, "done": 1, "quarantined": 1, "remaining": 0,
    }
    rendered = render_status(data)
    assert "result objects: 1" in rendered
    assert "quarantine:" in rendered
    assert "campaign retry" in rendered


def test_status_reads_a_store_whose_writer_lock_is_held(tmp_path):
    store_root = tmp_path / "store"
    cell = PLAN.cells[0]
    with ResultStore(store_root) as writer:
        writer.put(
            cell_digest(cell, PLAN), campaign_cell_spec(cell, PLAN),
            execute_cell(cell, CONFIG),
        )  # the writer now holds the lock
        data = campaign_status(store_root, plan=PLAN)
        assert data["objects"] == 1
        assert data["plan"]["done"] == 1
        assert data["plan"]["remaining"] == 1
        # The reader neither blocked nor truncated: appends go on.
        writer.put(
            cell_digest(cell, PLAN), campaign_cell_spec(cell, PLAN),
            execute_cell(cell, CONFIG),
        )


def test_status_requires_a_store(tmp_path):
    missing = tmp_path / "absent"
    with pytest.raises(CampaignError, match="not a campaign store"):
        campaign_status(missing)
    assert not missing.exists()  # read-only: nothing was created


def test_status_reads_protocol_events_tolerantly(tmp_path):
    store_root = tmp_path / "store"
    run_campaign(PLAN, store_root, workers=1, max_attempts=2,
                 backoff_s=0.01)
    telemetry_dir = store_root / "telemetry"
    telemetry_dir.mkdir()
    (telemetry_dir / "events.jsonl").write_text(
        json.dumps({
            "kind": "cell_leased", "time_s": 0.1, "cell": "x",
            "index": 0, "worker": 0, "attempt": 1,
        }) + "\n"
        + json.dumps({"kind": "unrelated_event", "time_s": 0.2}) + "\n"
        + '{"kind": "cell_leased", "torn'
    )
    data = campaign_status(store_root, plan=PLAN)
    assert data["event_counts"]["cell_leased"] == 1
    assert sum(data["event_counts"].values()) == 1
    assert all(
        event["kind"] in CAMPAIGN_EVENT_KINDS
        for event in data["recent_events"]
    )
    assert "leased" in render_status(data)


def test_status_command_ignores_a_torn_final_line(
    tmp_path, capsys, monkeypatch
):
    """A live campaign's log may end mid-line: ``campaign status``
    counts the complete protocol events, drops the torn one, and reads
    no column file for the ticks lines it does not show."""
    from repro.cli import main
    from repro.telemetry import report

    def refuse(path):
        raise AssertionError(f"read the column file {path}")

    monkeypatch.setattr(report, "read_column_file", refuse)

    store_root = tmp_path / "store"
    run_campaign(PLAN, store_root, workers=1, max_attempts=2,
                 backoff_s=0.01)
    telemetry_dir = store_root / "telemetry"
    telemetry_dir.mkdir()
    expired = json.dumps({
        "kind": "lease_expired", "time_s": 0.3, "cell": "x", "index": 0,
        "reason": "timeout", "retry_in_s": 0.5,
    })
    (telemetry_dir / "events.jsonl").write_text(
        json.dumps({
            "kind": "cell_leased", "time_s": 0.1, "cell": "x",
            "index": 0, "worker": 0, "attempt": 1,
        }) + "\n"
        + json.dumps({  # its events.f64 was never written
            "kind": "ticks", "time_s": 0.2, "columns": {"time_s": [0, 4]},
            "rates": {},
        }) + "\n"
        + expired[: len(expired) // 2]
    )
    assert main(["campaign", "status", "--store", str(store_root),
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["event_counts"] == {
        "campaign_resumed": 0, "cell_leased": 1, "lease_expired": 0,
        "cell_quarantined": 0,
    }
    assert [e["kind"] for e in data["recent_events"]] == ["cell_leased"]
