"""Observed runs take the fused kernel and write the frozen bundles.

Telemetry does not change the loop: a run with an enabled recorder goes
through :func:`repro.core.blockloop.run_fast` like an unobserved one.
The contract pinned here is that a bundle holds what the frozen ones
(``golden_loop.json``) hold: the trace CSV rendered from its ``ticks``
records hashes to their ``trace.csv``, the bundle writes no
``trace.csv`` of its own,
``metrics.json`` is equal once the wall-clock ``spans`` are removed,
the run's digest equals the telemetry-off digest, and ``events.jsonl``
has the same rare events, byte for byte, and the same per-tick values
(each ``ticks`` record expanded into the ``sample``/``decision``/
``tick`` events it replaced, in order).
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.store import RESULTS_LOG
from repro.checkpoint import run_result_digest
from repro.core import blockloop
from repro.exec import RunCell, execute_cell
from repro.exec.cache import trained_power_model

from .golden_cells import (
    BUNDLES,
    CONFIG,
    GOVERNORS,
    RESUME_PLAN,
    bundle_record,
    checkpointed,
    cut,
    load_fixture,
    event_hashes,
    observed,
)

GOLDEN = load_fixture()


@pytest.fixture
def fast_calls(monkeypatch):
    """Count entries into the fused kernel."""
    calls = []
    run_fast = blockloop.run_fast

    def counting(*args, **kwargs):
        calls.append(1)
        return run_fast(*args, **kwargs)

    monkeypatch.setattr(blockloop, "run_fast", counting)
    return calls


def _bundle(key, directory, fast_calls):
    # The energy-optimal governor's trained model: its training runs go
    # through the kernel too, so train it before counting the cell's run.
    trained_power_model(seed=CONFIG.seed)
    fast_calls.clear()
    record = bundle_record(directory, BUNDLES[key](directory))
    assert len(fast_calls) == 1
    assert not (directory / "trace.csv").exists()
    expected = GOLDEN["bundles"][key]
    for field in ("rare_events_sha256", "ticks_sha256", "trace_sha256",
                  "metrics", "digest"):
        assert record[field] == expected[field], field
    return record


@pytest.mark.parametrize("name", sorted(GOVERNORS))
@pytest.mark.parametrize("keep_trace", [False, True], ids=["notrace", "trace"])
def test_observed_bundle_identical_on_both_loops(
    name, keep_trace, tmp_path, fast_calls
):
    key = f"bundle/{name}/{'trace' if keep_trace else 'notrace'}"
    record = _bundle(key, tmp_path / "tel", fast_calls)
    config = dataclasses.replace(CONFIG, keep_trace=keep_trace)
    off = execute_cell(RunCell(workload="gzip", governor=GOVERNORS[name]),
                       config)
    assert record["digest"] == run_result_digest(off)


def test_observed_hooked_bundle_matches_scalar(tmp_path, fast_calls):
    """Fault injection, resilience and adaptation run in the kernel's
    hook mode and record the frozen per-tick values and rare events."""
    _bundle("bundle/paper-pm/faults-adapt", tmp_path / "tel", fast_calls)


def test_observed_kill_and_resume_identical_on_both_loops(
    tmp_path, fast_calls
):
    """Store an observed plan, cut the log between cells, resume it.

    The uninterrupted checkpointed run and the resumed leg write the
    frozen events.  The registry restored from the last served cell
    plus the rerun cells finish where the uninterrupted run's metrics
    did.
    """
    golden = GOLDEN["observed_resume"]
    recorder, exporter = observed(tmp_path / "run.jsonl")
    try:
        digests, _ = checkpointed(tmp_path / "run", telemetry=recorder)
    finally:
        exporter.close()
    assert digests == GOLDEN["resume"]
    assert len(fast_calls) == len(RESUME_PLAN)
    hashes = event_hashes(tmp_path / "run.jsonl")
    for name, value in hashes.items():
        assert value == golden[name], name
    assert recorder.metrics.snapshot() == golden["metrics"]

    keep = len(RESUME_PLAN) // 2
    shutil.copytree(tmp_path / "run", tmp_path / "cut")
    cut(tmp_path / "cut", keep)
    fast_calls.clear()
    recorder, exporter = observed(tmp_path / "resumed.jsonl")
    try:
        digests, replayed = checkpointed(
            tmp_path / "cut", telemetry=recorder, resume=True
        )
    finally:
        exporter.close()
    assert replayed == keep
    assert len(fast_calls) == len(RESUME_PLAN) - keep
    assert digests == GOLDEN["resume"]
    for name, value in event_hashes(tmp_path / "resumed.jsonl").items():
        assert value == golden[f"resumed_{name}"], name
    assert recorder.metrics.snapshot() == golden["metrics"]


@pytest.fixture(scope="module")
def observed_store(tmp_path_factory):
    """:data:`RESUME_PLAN` stored by an uninterrupted observed run."""
    directory = tmp_path_factory.mktemp("observed") / "store"
    recorder, exporter = observed(directory.parent / "run.jsonl")
    try:
        checkpointed(directory, telemetry=recorder)
    finally:
        exporter.close()
    return directory


@settings(max_examples=40, deadline=None)
@given(
    keep=st.integers(min_value=0, max_value=len(RESUME_PLAN)),
    garbage=st.binary(max_size=40),
)
def test_any_cut_resumes_to_the_uninterrupted_run(
    observed_store, keep, garbage
):
    """Keep any prefix of the stored cells, then a torn tail of any
    garbage: the resume serves the kept cells, runs the rest through
    the kernel and ends with the uninterrupted digests and metrics."""
    calls = []
    run_fast = blockloop.run_fast

    def counting(*args, **kwargs):
        calls.append(1)
        return run_fast(*args, **kwargs)

    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / "store"
        shutil.copytree(observed_store, directory)
        cut(directory, keep, torn=0)
        with open(directory / RESULTS_LOG, "ab") as handle:
            handle.write(garbage)
        recorder, exporter = observed(Path(scratch) / "resumed.jsonl")
        try:
            with mock.patch.object(blockloop, "run_fast", counting):
                digests, served = checkpointed(
                    directory, telemetry=recorder, resume=True
                )
        finally:
            exporter.close()
    assert digests == GOLDEN["resume"]
    assert served == keep
    assert len(calls) == len(RESUME_PLAN) - keep
    golden = GOLDEN["observed_resume"]["metrics"]
    assert recorder.metrics.snapshot() == golden
