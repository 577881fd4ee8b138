"""Observed runs take the fused kernel and write the scalar loop's bundle.

Telemetry is not an eligibility condition: a run with an enabled
recorder goes through :func:`repro.core.blockloop.run_fast` like an
unobserved one.  The contract pinned here is that nothing a consumer
can read tells the two loops apart -- ``events.jsonl`` and ``trace.csv``
are byte-identical between ``FAST_LOOP`` True and False, ``metrics.json``
is equal once the wall-clock ``spans`` are removed, and the run's digest
equals the telemetry-off digest.
"""

from __future__ import annotations

import dataclasses
import json
import shutil

import pytest

from repro.checkpoint import run_result_digest
from repro.core import blockloop
from repro.exec import RunCell, RunPlan, execute_cell, open_session
from repro.telemetry import TelemetryRecorder
from repro.telemetry.exporters import JsonlEventExporter

from .test_block_equivalence import (
    CONFIG,
    GOVERNORS,
    RESUME_PLAN,
    _checkpointed,
    _cut,
)

#: Governors whose runs the fused kernel takes (energy-optimal feeds
#: measured power back to the governor, so it stays on the scalar loop).
FUSED = {"dbs", "paper-pm", "ps", "fixed"}


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


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _metrics(directory):
    with open(directory / "metrics.json") as handle:
        snapshot = json.load(handle)
    assert list(snapshot.pop("spans")) == ["run"]
    return snapshot


@pytest.mark.parametrize("name", sorted(GOVERNORS))
@pytest.mark.parametrize("keep_trace", [False, True], ids=["notrace", "trace"])
def test_observed_bundle_identical_on_both_loops(
    name, keep_trace, tmp_path, monkeypatch, fast_calls
):
    config = dataclasses.replace(CONFIG, keep_trace=keep_trace)
    cell = RunCell(workload="gzip", governor=GOVERNORS[name])
    plan = RunPlan(config, (cell,))

    monkeypatch.setattr(blockloop, "FAST_LOOP", True)
    off = run_result_digest(execute_cell(cell, config))
    digests = {}
    for mode, fast in (("fast", True), ("scalar", False)):
        monkeypatch.setattr(blockloop, "FAST_LOOP", fast)
        fast_calls.clear()
        with open_session(telemetry_dir=tmp_path / mode) as session:
            (result,) = session.run_plan(plan)
        digests[mode] = run_result_digest(result)
        assert len(fast_calls) == (1 if fast and name in FUSED else 0)

    for filename in ("events.jsonl", "trace.csv"):
        assert _read(tmp_path / "fast" / filename) == _read(
            tmp_path / "scalar" / filename
        ), filename
    assert _metrics(tmp_path / "fast") == _metrics(tmp_path / "scalar")
    assert digests["fast"] == digests["scalar"] == off


def _observed(path):
    recorder = TelemetryRecorder()
    exporter = JsonlEventExporter(path)
    recorder.bus.subscribe(exporter)
    return recorder, exporter


def test_observed_kill_and_resume_identical_on_both_loops(
    tmp_path, monkeypatch, fast_calls
):
    """Archive an observed plan, cut it between cells, resume it.

    The uninterrupted checkpointed runs write the same events on both
    loops, and so do the resumed legs.  The registry restored from the
    archive plus the rerun cells finish where the uninterrupted run's
    metrics did.
    """
    monkeypatch.setattr(blockloop, "FAST_LOOP", True)
    baseline, _ = _checkpointed(tmp_path / "unobserved")

    uninterrupted = {}
    for mode, fast in (("fast", True), ("scalar", False)):
        monkeypatch.setattr(blockloop, "FAST_LOOP", fast)
        recorder, exporter = _observed(tmp_path / f"{mode}.jsonl")
        try:
            digests, _ = _checkpointed(tmp_path / mode, telemetry=recorder)
        finally:
            exporter.close()
        assert digests == baseline, mode
        uninterrupted[mode] = recorder.metrics.snapshot()
    assert fast_calls
    assert uninterrupted["fast"] == uninterrupted["scalar"]
    assert _read(tmp_path / "fast.jsonl") == _read(tmp_path / "scalar.jsonl")

    keep = len(RESUME_PLAN) // 2
    metrics = {}
    for mode, fast in (("fast", True), ("scalar", False)):
        copy = tmp_path / f"cut-{mode}"
        shutil.copytree(tmp_path / "fast", copy)
        _cut(copy, keep)
        monkeypatch.setattr(blockloop, "FAST_LOOP", fast)
        fast_calls.clear()
        recorder, exporter = _observed(tmp_path / f"resumed-{mode}.jsonl")
        try:
            digests, replayed = _checkpointed(
                copy, telemetry=recorder, resume=True
            )
        finally:
            exporter.close()
        assert replayed == keep
        assert len(fast_calls) == (len(RESUME_PLAN) - keep if fast else 0)
        assert digests == baseline, mode
        metrics[mode] = recorder.metrics.snapshot()
    assert _read(tmp_path / "resumed-fast.jsonl") == _read(
        tmp_path / "resumed-scalar.jsonl"
    )
    assert metrics["fast"] == metrics["scalar"] == uninterrupted["fast"]
