"""Chaos drill for the campaign engine: SIGKILL, resume, quarantine.

The campaign layer's three guarantees (README "Resilient campaigns")
are only worth their documentation if they survive a real kill and a
real poison cell.  This drill stages both:

**Part A -- kill and resume.**  A ``repro-power campaign run`` child
(its own session, so the whole process group -- coordinator and
workers -- dies together) executes a multi-cell sweep against a fresh
store.  The harness polls the store's results log and SIGKILLs
the group the moment the campaign is provably *mid-flight* (some, but
not all, result records in the store's log -- each one is kill-safe
the moment it is appended).  A second, in-process invocation must then
resume from the store: every pre-kill object served as a verified
cache hit, only the remainder executed, nothing lost.  Each surviving
object is additionally re-executed serially and compared by
:func:`~repro.checkpoint.digest.run_result_digest` -- cache hits are
bit-identical to a fresh execution, not just plausibly similar.

**Part B -- poison quarantine.**  One plan carries two deterministic
poison cells -- a *transient* one (an injected hook that raises on
every attempt, exhausting the bounded retry budget) and a *permanent*
one (a ``trace:`` workload pointing at a file that does not exist) --
beside healthy cells.  The campaign must quarantine both with their
failure histories (transient: ``max_attempts`` attempts recorded;
permanent: one attempt, flagged permanent) while every healthy cell
completes, and report the shortfall via ``degraded=True`` instead of
raising.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, List, Mapping

from repro.campaign import ResultStore, run_campaign
from repro.campaign.store import plan_digests
from repro.checkpoint.digest import run_result_digest
from repro.errors import CampaignError, DeadlineExceeded
from repro.exec.session import ExecSession
from repro.exec.plan import ExperimentConfig, GovernorSpec, RunCell, RunPlan

#: Workloads x frequencies for the kill-and-resume sweep: enough cells
#: that the store fills over an observable window even though each
#: cell simulates in milliseconds.
_SWEEP_WORKLOADS = (
    "ammp", "applu", "apsi", "art", "bzip2", "crafty", "equake", "mcf",
)
_SWEEP_FREQS_MHZ = (1000.0, 1600.0, 2000.0)

#: Retry budget for the transient poison cell in part B.
_POISON_MAX_ATTEMPTS = 3

#: Cell index the transient-poison hook sabotages (module-level so the
#: hook pickles into spawned workers).
_TRANSIENT_POISON_INDEX = 0

#: Durable objects to wait for before the SIGKILL lands: enough that
#: the bit-identity check covers several survivors, early enough that
#: plenty of the sweep is still unfinished.
_KILL_AFTER_OBJECTS = 3

#: Wall-clock budget for one campaign child.
_CHILD_DEADLINE_S = 300.0

#: Kill cycles attempted before part A concedes the campaign is too
#: fast to catch mid-flight (never observed in practice).
_KILL_TRIES = 3


def _transient_poison_hook(index: int) -> None:
    """Injected per-cell hook: fail every attempt at one fixed index."""
    if index == _TRANSIENT_POISON_INDEX:
        raise RuntimeError("injected transient poison (campaign drill)")


def _sweep_plan(config: ExperimentConfig) -> RunPlan:
    cells = tuple(
        RunCell(workload=workload, governor=GovernorSpec.fixed(freq))
        for workload in _SWEEP_WORKLOADS
        for freq in _SWEEP_FREQS_MHZ
    )
    return RunPlan(config=config, cells=cells)


def _open_reader(store_dir: str) -> ResultStore | None:
    """The child's store opened as a reader (None until it exists)."""
    try:
        return ResultStore(store_dir, create=False)
    except CampaignError:
        return None  # the child has not written its manifest yet


def _durable_digests(reader: ResultStore | None) -> set:
    """Digests of every complete record in the log so far."""
    if reader is None:
        return set()
    reader.refresh()
    return set(reader.object_digests())


def _kill_mid_campaign(
    plan_path: str, store_dir: str
) -> tuple[bool, set]:
    """Run a campaign child; SIGKILL its process group mid-flight.

    Returns ``(killed, digests_durable_at_kill)``.  The kill is a raw
    SIGKILL of the whole group -- coordinator and workers get no
    chance to flush, finalize telemetry, or write anything further.
    """
    total = len(_SWEEP_WORKLOADS) * len(_SWEEP_FREQS_MHZ)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "campaign", "run",
            "--plan", plan_path, "--store", store_dir,
            "--workers", "1", "--telemetry", "none",
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    start = time.monotonic()
    reader = None
    try:
        while proc.poll() is None:
            if time.monotonic() - start > _CHILD_DEADLINE_S:
                raise DeadlineExceeded(
                    f"campaign child ran past {_CHILD_DEADLINE_S:.0f}s"
                )
            if reader is None:
                reader = _open_reader(store_dir)
            durable = _durable_digests(reader)
            if _KILL_AFTER_OBJECTS <= len(durable) < total:
                os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
                proc.wait()
                return True, durable
            time.sleep(0.001)
        proc.wait()
        if reader is None:
            reader = _open_reader(store_dir)
        return False, _durable_digests(reader)
    finally:
        if proc.poll() is None:
            os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
        if reader is not None:
            reader.close()


def _part_a(config: ExperimentConfig, workdir: str) -> Mapping[str, Any]:
    plan = _sweep_plan(config)
    digests = plan_digests(plan)
    plan_path = os.path.join(workdir, "sweep.json")
    with open(plan_path, "w") as handle:
        handle.write(plan.to_json())

    killed = False
    survivors: set = set()
    store_dir = ""
    for attempt in range(_KILL_TRIES):
        store_dir = os.path.join(workdir, f"store-a{attempt}")
        killed, survivors = _kill_mid_campaign(plan_path, store_dir)
        if killed:
            break

    # Resume in-process against the murdered store.
    with ResultStore(store_dir) as store:
        result = run_campaign(plan, store, workers=2, backoff_s=0.05)
        cached_digests = {result.digests[i] for i in result.cached}
        executed_digests = {result.digests[i] for i in result.executed}

        # Bit-identity: every object that survived the kill must match
        # a fresh serial execution of the same cell, digest for digest.
        index_of = {digest: i for i, digest in enumerate(digests)}
        identical = 0
        for digest in sorted(survivors):
            fresh = ExecSession().run_cells(
                [plan.cells[index_of[digest]]], plan.config
            )[0]
            if run_result_digest(fresh) == store.result_digest(digest):
                identical += 1
    return {
        "cells": len(plan.cells),
        "killed": killed,
        "objects_at_kill": len(survivors),
        "resumed": result.resumed,
        "cached_on_resume": len(result.cached),
        "executed_on_resume": len(result.executed),
        "lost": len(result.lost),
        "completed": result.completed,
        "degraded_after_resume": result.degraded,
        "survivors_identical": identical,
        "survivors_total": len(survivors),
        "only_missing_executed": not (executed_digests & survivors),
        "passed": (
            killed
            and result.resumed
            and result.completed == len(plan.cells)
            and not result.degraded
            and survivors <= cached_digests
            and not (executed_digests & survivors)
            and identical == len(survivors)
            and len(result.executed) >= 1
        ),
    }


def _part_b(config: ExperimentConfig, workdir: str) -> Mapping[str, Any]:
    poison_trace = os.path.join(workdir, "missing-poison.csv")
    plan = RunPlan(
        config=config,
        cells=(
            # _TRANSIENT_POISON_INDEX: sabotaged on every attempt.
            RunCell(workload="ammp", governor=GovernorSpec.fixed(1600.0)),
            RunCell(
                workload=f"trace:{poison_trace}",
                governor=GovernorSpec.fixed(1000.0),
            ),
            RunCell(workload="mcf", governor=GovernorSpec.fixed(2000.0)),
            RunCell(workload="equake", governor=GovernorSpec.fixed(1600.0)),
        ),
    )
    with ResultStore(os.path.join(workdir, "store-b")) as store:
        result = run_campaign(
            plan, store,
            workers=2,
            max_attempts=_POISON_MAX_ATTEMPTS,
            backoff_s=0.02,
            cell_hook=_transient_poison_hook,
        )
        transient = store.quarantine_record(result.digests[0]) or {}
        permanent = store.quarantine_record(result.digests[1]) or {}
    return {
        "cells": len(plan.cells),
        "quarantined": sorted(result.quarantined),
        "completed": result.completed,
        "lost": len(result.lost),
        "degraded": result.degraded,
        "transient_attempts": transient.get("attempts"),
        "transient_permanent": transient.get("permanent"),
        "permanent_attempts": permanent.get("attempts"),
        "permanent_permanent": permanent.get("permanent"),
        "passed": (
            sorted(result.quarantined) == [0, 1]
            and result.completed == 2
            and not result.lost
            and result.degraded
            and not result.interrupted
            and transient.get("attempts") == _POISON_MAX_ATTEMPTS
            and transient.get("permanent") is False
            and permanent.get("attempts") == 1
            and permanent.get("permanent") is True
        ),
    }


def run(config: ExperimentConfig | None = None) -> Mapping[str, Any]:
    """Execute both drill parts; returns the verification data."""
    config = config or ExperimentConfig(scale=0.2, seed=11)
    workdir = tempfile.mkdtemp(prefix="repro-campaign-drill-")
    try:
        part_a = _part_a(config, workdir)
        part_b = _part_b(config, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "scale": config.scale,
        "seed": config.seed,
        "part_a": part_a,
        "part_b": part_b,
        "passed": bool(part_a["passed"] and part_b["passed"]),
    }


def render(data: Mapping[str, Any]) -> str:
    """Human-readable digest of the drill."""
    a = data["part_a"]
    b = data["part_b"]
    lines: List[str] = [
        "campaign chaos drill",
        "====================",
        "",
        f"scale {data['scale']}, seed {data['seed']}",
        "",
        "part A: SIGKILL mid-campaign, resume from the store",
        f"  {a['cells']} cells; killed mid-flight: {a['killed']} "
        f"({a['objects_at_kill']} objects durable at kill)",
        f"  resume: {a['cached_on_resume']} cached + "
        f"{a['executed_on_resume']} executed, {a['lost']} lost "
        f"(resumed={a['resumed']}, degraded={a['degraded_after_resume']})",
        f"  only missing cells executed: {a['only_missing_executed']}",
        f"  survivors bit-identical to fresh execution: "
        f"{a['survivors_identical']}/{a['survivors_total']}",
        f"  {'PASS' if a['passed'] else 'FAIL'}",
        "",
        "part B: poison cells quarantined, rest completes",
        f"  {b['cells']} cells; quarantined {b['quarantined']}, "
        f"completed {b['completed']}, lost {b['lost']} "
        f"(degraded={b['degraded']})",
        f"  transient poison: {b['transient_attempts']} attempts, "
        f"permanent={b['transient_permanent']}",
        f"  permanent poison: {b['permanent_attempts']} attempt(s), "
        f"permanent={b['permanent_permanent']}",
        f"  {'PASS' if b['passed'] else 'FAIL'}",
        "",
        "PASS: kill/resume and poison quarantine both hold"
        if data["passed"]
        else "FAIL: at least one campaign guarantee did not hold",
    ]
    return "\n".join(lines)
