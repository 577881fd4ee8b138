"""Chaos drill: SIGKILL a checkpointed experiment, resume it, compare.

The crash-safety claim (README "Crash safety & resume") is only worth
its documentation if it survives a *real* kill: a child ``repro-power
experiment --checkpoint`` process killed with SIGKILL at an arbitrary
point -- no atexit handlers, no flushing, nothing graceful -- must,
after ``--resume``, print the uninterrupted experiment's output and
store bit-identical results for every cell.

The harness:

1. runs a multi-cell experiment once, uninterrupted and checkpointed,
   in a child process and keeps its stdout and the float-exact
   :func:`~repro.checkpoint.run_result_digest` of every stored cell
   as the reference;
2. for each of ``kills`` cycles, starts a fresh checkpointed child and
   SIGKILLs it once its ``results.log`` holds a randomized number of
   complete records -- so some cells are stored and the rest,
   including the one in flight, are not;
3. resumes each murdered experiment with ``--resume`` and compares its
   stdout and per-cell digests against the reference.

Child processes run under a :class:`~repro.supervise.Supervisor`
deadline so a wedged child fails the experiment instead of hanging it.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.campaign.store import RESULTS_LOG, ResultStore
from repro.checkpoint.digest import run_result_digest
from repro.checkpoint.format import read_records
from repro.errors import CheckpointError, DeadlineExceeded, ExperimentError
from repro.exec.plan import ExperimentConfig
from repro.supervise import RetryPolicy, Supervisor

#: Experiment the drill kills: Fig. 6 runs hundreds of short cells, so
#: randomized kill points land between many stored records.
DEFAULT_EXPERIMENT = "fig6"

#: Kill/resume cycles.
DEFAULT_KILLS = 5

#: Kill points are drawn below this fraction of the reference's cells,
#: leaving room for the records stored while the kill is delivered.
KILL_SPAN = 0.8

#: Wall-clock budget per child process.
DEFAULT_CHILD_DEADLINE_S = 300.0


@dataclass(frozen=True)
class KillCycle:
    """Outcome of one SIGKILL + resume cycle."""

    target_records: int
    #: Complete ``results.log`` records when the kill landed (the whole
    #: experiment when the child finished before the kill could land).
    archived_at_kill: int
    #: True when the child was SIGKILLed with some cells stored and
    #: some not.
    killed: bool
    #: True when the resumed stdout and every per-cell digest match the
    #: uninterrupted reference.
    identical: bool


def _python_cmd(extra: Sequence[str]) -> list[str]:
    return [sys.executable, "-m", "repro", "experiment", *extra]


def _cell_digests(directory: str) -> dict[str, Mapping[str, Any]]:
    """Digest every cell of the store in ``directory``, by cell digest."""
    with ResultStore(directory, create=False) as store:
        return {
            digest: run_result_digest(store.get(digest))
            for digest in store.object_digests()
        }


def _durable_records(log_path: str) -> int:
    """Complete records in ``log_path`` (0 before its header is)."""
    try:
        return len(read_records(log_path))
    except (OSError, CheckpointError):
        return 0


def _wait_and_kill(
    proc: subprocess.Popen,
    log_path: str,
    target_records: int,
    deadline_s: float,
) -> int:
    """Poll the log; SIGKILL ``proc`` once ``target_records`` are in it.

    Returns the number of durable records once the child is gone.  The
    kill is a raw SIGKILL -- the child gets no chance to flush or clean
    up, which is the whole point.
    """
    start = time.monotonic()
    while proc.poll() is None:
        if time.monotonic() - start > deadline_s:
            proc.kill()
            proc.wait()
            raise DeadlineExceeded(
                f"chaos child ran past {deadline_s:.0f}s before storing "
                f"{target_records} cells"
            )
        if _durable_records(log_path) >= target_records:
            os.kill(proc.pid, signal.SIGKILL)
            break
        time.sleep(0.002)
    proc.wait()
    return _durable_records(log_path)


def run(config: ExperimentConfig | None = None) -> Mapping[str, Any]:
    """Execute the kill/resume drill; returns the comparison data."""
    config = config or ExperimentConfig(scale=0.3)
    kills = DEFAULT_KILLS
    rng = np.random.default_rng(config.seed + 1)
    supervisor = Supervisor(
        RetryPolicy(max_attempts=1, deadline_s=DEFAULT_CHILD_DEADLINE_S * 4)
    )
    flags = [DEFAULT_EXPERIMENT, "--scale", str(config.scale)]
    workdir = tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        # 1. The uninterrupted reference (checkpointing on, so its
        #    store holds the per-cell reference digests).
        ref_dir = os.path.join(workdir, "reference")
        reference_stdout = supervisor.run_subprocess(
            _python_cmd(flags + ["--checkpoint", ref_dir]),
            label="chaos-reference",
            timeout_s=DEFAULT_CHILD_DEADLINE_S,
        ).stdout
        reference = _cell_digests(ref_dir)
        total = len(reference)
        if total < 10:
            raise ExperimentError(
                f"{DEFAULT_EXPERIMENT} stored only {total} cells; too "
                "few to place randomized kills"
            )

        # 2. Kill/resume cycles at randomized store depths.
        cycles: list[KillCycle] = []
        for index in range(kills):
            target = int(rng.integers(1, int(total * KILL_SPAN)))
            run_dir = os.path.join(workdir, f"kill-{index}")
            proc = subprocess.Popen(
                _python_cmd(flags + ["--checkpoint", run_dir]),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            archived = _wait_and_kill(
                proc,
                os.path.join(run_dir, RESULTS_LOG),
                target,
                DEFAULT_CHILD_DEADLINE_S,
            )
            # 3. Resume: stored cells are served, the rest rerun.
            resumed_stdout = supervisor.run_subprocess(
                _python_cmd(["--resume", run_dir]),
                label=f"chaos-resume-{index}",
                timeout_s=DEFAULT_CHILD_DEADLINE_S,
            ).stdout
            cycles.append(
                KillCycle(
                    target_records=target,
                    archived_at_kill=archived,
                    killed=0 < archived < total,
                    identical=(
                        resumed_stdout == reference_stdout
                        and _cell_digests(run_dir) == reference
                    ),
                )
            )
        first = reference[min(reference)]
        return {
            "experiment": DEFAULT_EXPERIMENT,
            "scale": config.scale,
            "seed": config.seed,
            "cells": total,
            "reference_samples_sha256": first["samples_sha256"],
            "cycles": [vars(c) for c in cycles],
            "kills": sum(1 for c in cycles if c.killed),
            "identical": sum(1 for c in cycles if c.identical),
            "all_identical": all(c.identical for c in cycles),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def render(data: Mapping[str, Any]) -> str:
    """Human-readable digest of the drill."""
    lines = [
        "chaos kill/resume drill",
        "=======================",
        "",
        f"experiment {data['experiment']} (scale {data['scale']}), "
        f"{data['cells']} cells stored per run",
        f"reference samples sha256 (lowest cell digest): "
        f"{data['reference_samples_sha256'][:16]}...",
        "",
        f"{'cycle':>5} {'target':>7} {'archived at kill':>17} "
        f"{'killed':>7} {'identical':>10}",
    ]
    for index, cycle in enumerate(data["cycles"]):
        lines.append(
            f"{index:>5} {cycle['target_records']:>7} "
            f"{cycle['archived_at_kill']:>17} "
            f"{str(cycle['killed']):>7} {str(cycle['identical']):>10}"
        )
    lines.append("")
    lines.append(
        f"{data['kills']}/{len(data['cycles'])} children SIGKILLed "
        f"mid-experiment; {data['identical']}/{len(data['cycles'])} "
        f"resumed bit-identical"
    )
    lines.append(
        "PASS: every resumed experiment matches the uninterrupted reference"
        if data["all_identical"]
        else "FAIL: at least one resumed experiment diverged from the "
        "reference"
    )
    return "\n".join(lines)
