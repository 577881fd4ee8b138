"""CI chaos smoke: SIGKILL real child experiments, resume, demand bit-identity.

Spawns actual ``python -m repro experiment --checkpoint`` subprocesses
and kills them with SIGKILL at randomized result-store depths, so it
is slower than the unit suite and gated behind ``REPRO_CHAOS_SMOKE=1``
(a dedicated CI matrix entry).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.checkpoint.format import HEADER_SIZE, read_records
from repro.experiments import chaos_resume
from repro.exec import ExperimentConfig

pytestmark = pytest.mark.skipif(
    not os.environ.get("REPRO_CHAOS_SMOKE"),
    reason="set REPRO_CHAOS_SMOKE=1 to run the chaos kill-resume drill",
)

ENV = dict(os.environ, PYTHONPATH="src")


def test_chaos_kill_resume_drill():
    """Every SIGKILLed-and-resumed experiment matches the uninterrupted one.

    Each of the five kills must land with some cells archived and some
    not, and each resume must reproduce the reference stdout and every
    per-cell digest.
    """
    result = chaos_resume.run(ExperimentConfig(scale=0.3, seed=0))
    assert result["kills"] == len(result["cycles"]) >= 5
    assert result["all_identical"] is True
    assert "PASS" in chaos_resume.render(result)


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except FileNotFoundError:
        return 0


def test_experiment_session_survives_sigkill(tmp_path):
    """SIGKILL a checkpointed experiment session, resume, same stdout."""
    base = [sys.executable, "-m", "repro", "experiment"]
    flags = ["fig6", "--scale", "0.3"]

    reference = subprocess.run(
        [*base, *flags], capture_output=True, text=True, env=ENV,
        check=True, timeout=600,
    ).stdout

    session_dir = tmp_path / "session"
    victim = subprocess.Popen(
        [*base, *flags, "--checkpoint", str(session_dir)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=ENV,
    )
    # Kill as soon as at least one cell is in the store, so the resume
    # genuinely serves a partial session.  If the session wins the race
    # and finishes first, resume still serves it all.  The writer
    # creates the log before its header is written, so it is read only
    # once it holds more than a header, as ``ResultStore.refresh`` does.
    log = session_dir / "results.log"
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline and victim.poll() is None:
        if _size(log) > HEADER_SIZE and read_records(log):
            victim.send_signal(signal.SIGKILL)
            break
        time.sleep(0.005)
    victim.wait(timeout=60)

    resumed = subprocess.run(
        [*base, "--resume", str(session_dir)],
        capture_output=True, text=True, env=ENV, timeout=600,
    )
    assert resumed.returncode == 0
    assert resumed.stdout == reference
    assert "replayed" in resumed.stderr


def test_chaos_result_shape_is_archivable():
    """The chaos payload is JSON-serialisable."""
    result = chaos_resume.run(ExperimentConfig(scale=0.3, seed=1))
    encoded = json.loads(json.dumps(result))
    assert encoded["reference_samples_sha256"]
    assert len(encoded["cycles"]) == result["kills"]


def test_run_resume_after_sigkill(tmp_path):
    """SIGKILL ``run --checkpoint`` mid-run; ``--resume`` matches a clean run."""
    base = [sys.executable, "-m", "repro", "run"]
    flags = ["ammp", "--scale", "1.0", "--use-paper-model"]
    digest = tmp_path / "digest.json"

    reference = subprocess.run(
        [*base, *flags, "--result-json", str(digest)],
        capture_output=True, text=True, env=ENV, check=True, timeout=600,
    ).stdout
    reference_digest = digest.read_text()
    digest.unlink()

    run_dir = tmp_path / "run"
    victim = subprocess.Popen(
        [*base, *flags, "--checkpoint", str(run_dir),
         "--result-json", str(digest)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=ENV,
    )
    # The options are durable once the store's manifest exists (it is
    # written atomically); kill right then.
    manifest = run_dir / "store.json"
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline and victim.poll() is None:
        if manifest.exists():
            victim.send_signal(signal.SIGKILL)
            break
        time.sleep(0.001)
    victim.wait(timeout=60)
    assert victim.returncode == -signal.SIGKILL
    assert not digest.exists()

    resumed = subprocess.run(
        [*base, "--resume", str(run_dir), "--result-json", str(digest)],
        capture_output=True, text=True, env=ENV, timeout=600,
    )
    assert resumed.returncode == 0
    assert resumed.stdout == reference
    assert digest.read_text() == reference_digest
