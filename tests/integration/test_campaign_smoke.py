"""CI campaign smoke: SIGKILL a real campaign, resume, quarantine poison.

Spawns an actual ``python -m repro campaign run`` process group and
kills it with SIGKILL mid-sweep, so it is slower than the unit suite
and gated behind ``REPRO_CAMPAIGN_SMOKE=1`` (a dedicated CI matrix
entry).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.experiments import campaign_drill
from repro.exec import ExperimentConfig

pytestmark = pytest.mark.skipif(
    not os.environ.get("REPRO_CAMPAIGN_SMOKE"),
    reason="set REPRO_CAMPAIGN_SMOKE=1 to run the campaign chaos drill",
)

ENV = dict(os.environ, PYTHONPATH="src")


def test_campaign_kill_resume_and_quarantine_drill():
    """Both campaign guarantees hold against a real SIGKILL and poison."""
    result = campaign_drill.run(ExperimentConfig(scale=0.2, seed=0))
    part_a = result["part_a"]
    assert part_a["killed"] is True
    assert part_a["resumed"] is True
    assert part_a["only_missing_executed"] is True
    assert part_a["survivors_identical"] == part_a["survivors_total"]
    assert part_a["completed"] == part_a["cells"]
    part_b = result["part_b"]
    assert part_b["quarantined"] == [0, 1]
    assert part_b["degraded"] is True
    assert part_b["transient_permanent"] is False
    assert part_b["permanent_permanent"] is True
    assert result["passed"] is True
    assert "PASS" in campaign_drill.render(result)


def test_campaign_cli_run_resume_status(tmp_path):
    """The CLI surface end to end: run, re-run (resume), status."""
    from repro.exec.plan import (
        ExperimentConfig as Config,
        GovernorSpec,
        RunCell,
        RunPlan,
    )

    plan = RunPlan(
        config=Config(scale=0.05, seed=1),
        cells=(
            RunCell(workload="ammp", governor=GovernorSpec.fixed(1600.0)),
            RunCell(workload="mcf", governor=GovernorSpec.fixed(2000.0)),
            RunCell(
                workload="trace:/nonexistent/poison.csv",
                governor=GovernorSpec.fixed(1000.0),
            ),
        ),
    )
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(plan.to_json())
    store = tmp_path / "store"
    base = [
        sys.executable, "-m", "repro", "campaign", "run",
        "--plan", str(plan_path), "--store", str(store),
        "--workers", "2", "--max-attempts", "2", "--backoff-s", "0.01",
    ]

    first = subprocess.run(
        base, capture_output=True, text=True, env=ENV, timeout=600,
    )
    assert first.returncode == 0  # quarantine is handled, not an error
    assert "2 executed" in first.stdout
    assert "1 quarantined" in first.stdout

    second = subprocess.run(
        base, capture_output=True, text=True, env=ENV, timeout=600,
    )
    assert second.returncode == 0
    assert "2 cached" in second.stdout
    assert "0 executed" in second.stdout
    assert "resumed from" in second.stdout

    status = subprocess.run(
        [
            sys.executable, "-m", "repro", "campaign", "status",
            "--store", str(store), "--plan", str(plan_path), "--json",
        ],
        capture_output=True, text=True, env=ENV, timeout=600,
    )
    assert status.returncode == 0
    data = json.loads(status.stdout)
    assert data["objects"] == 2
    assert data["plan"] == {
        "total": 3, "done": 2, "quarantined": 1, "remaining": 0,
    }


def test_campaign_result_shape_is_archivable():
    """The drill payload is plain JSON-serialisable data."""
    result = campaign_drill.run(ExperimentConfig(scale=0.2, seed=1))
    encoded = json.loads(json.dumps(result))
    assert encoded["part_a"]["cells"] > 0
    assert encoded["passed"] is True
