"""Regenerate ``golden_loop.json`` and ``golden_journal/`` from the loop.

Run from the repository root::

    PYTHONPATH=src python -m tests.core.make_golden_loop [OUT_DIR]

It runs every cell and bundle of :mod:`.golden_cells`, the resume plan
and the observed kill/resume drill on the current tick loop, and writes
``OUT_DIR/golden_loop.json`` and ``OUT_DIR/golden_journal/`` (default:
next to this file).  ``parent_commit`` stamps the commit the working
tree was checked out at.

To audit the fixture, write it to a scratch directory and compare: only
the ``loop`` and ``parent_commit`` stamps may differ, and the records of
``golden_journal/results.journal`` match in order, ``metrics`` and
``run_result_digest``.  (The committed journal pickles each result's
power samples as a tuple of ``PowerSample``, a fresh one as columns, so
the bytes differ; resuming the committed one checks that old journals
still load.)  Overwrite the
committed fixture only with a deliberate change to the tick math (RNG
draw order, meter, power model), in the same commit, and record why in
``CHANGES.md``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.checkpoint import run_result_digest

from .golden_cells import (
    BUNDLES,
    CELLS,
    RESUME_PLAN,
    bundle_record,
    checkpointed,
    cut,
    event_hashes,
    observed,
)

LOOP = "repro.core.blockloop.run_fast in the tree at parent_commit"


def _observed_resume(scratch: Path) -> dict:
    """The observed drill: archive the plan, cut it, resume it."""
    scratch.mkdir()
    recorder, exporter = observed(scratch / "run.jsonl")
    try:
        checkpointed(scratch / "run", telemetry=recorder)
    finally:
        exporter.close()
    record = {
        **event_hashes(scratch / "run.jsonl"),
        "metrics": recorder.metrics.snapshot(),
    }
    shutil.copytree(scratch / "run", scratch / "cut")
    cut(scratch / "cut", len(RESUME_PLAN) // 2)
    recorder, exporter = observed(scratch / "resumed.jsonl")
    try:
        checkpointed(scratch / "cut", telemetry=recorder, resume=True)
    finally:
        exporter.close()
    for name, value in event_hashes(scratch / "resumed.jsonl").items():
        record[f"resumed_{name}"] = value
    return record


def build(out: Path) -> dict:
    """Write ``out/golden_journal/`` and return the fixture."""
    journal = out / "golden_journal"
    shutil.rmtree(journal, ignore_errors=True)
    resume, _ = checkpointed(journal)
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        bundles = {}
        for key, run in BUNDLES.items():
            directory = scratch / key.replace("/", "_")
            bundles[key] = bundle_record(directory, run(directory))
        observed_resume = _observed_resume(scratch / "drill")
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
        check=True, cwd=Path(__file__).parent,
    ).stdout.strip()
    return {
        "bundles": bundles,
        "cells": {key: run_result_digest(run()) for key, run in CELLS.items()},
        "loop": LOOP,
        "observed_resume": observed_resume,
        "parent_commit": commit,
        "resume": resume,
    }


def main(argv: list[str]) -> None:
    out = Path(argv[0]) if argv else Path(__file__).parent
    out.mkdir(parents=True, exist_ok=True)
    fixture = build(out)
    with open(out / "golden_loop.json", "w") as handle:
        json.dump(fixture, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
