"""Lease dispatch: retries, quarantine, crash reaping, degradation.

Fault hooks live at module level (bound with ``functools.partial``) so
they survive pickling into worker processes.
"""

from __future__ import annotations

import functools
import os
import signal
import time
from types import SimpleNamespace

import pytest

from repro.campaign.dispatch import (
    _STOP,
    LeaseDispatcher,
    _stop_pool,
    batch_schedule,
)
from repro.checkpoint.digest import run_result_digest
from repro.errors import CampaignError
from repro.exec.core import execute_cell
from repro.exec.plan import ExperimentConfig, GovernorSpec, RunCell, RunPlan
from repro.telemetry.recorder import TelemetryRecorder

CONFIG = ExperimentConfig(scale=0.05, seed=1)

CELLS = tuple(
    RunCell(workload=name, governor=GovernorSpec.fixed(freq))
    for name, freq in (
        ("ammp", 1600.0), ("mcf", 2000.0), ("ammp", 1000.0),
    )
)
PLAN = RunPlan(config=CONFIG, cells=CELLS)

#: Large enough that the first batches on two workers hold 3 cells.
WIDE_CELLS = tuple(
    RunCell(workload=name, governor=GovernorSpec.fixed(freq))
    for name in ("ammp", "mcf", "gzip")
    for freq in (600.0, 800.0, 1000.0, 1200.0, 1400.0, 1600.0, 1800.0,
                 2000.0)
)
WIDE_PLAN = RunPlan(config=CONFIG, cells=WIDE_CELLS)


def _fail_once(marker_path: str, target: int, index: int) -> None:
    """Raise a transient error the first time ``target`` is attempted."""
    if index != target:
        return
    try:
        fd = os.open(marker_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    raise RuntimeError("injected transient fault")


def _fail_always(target: int, index: int) -> None:
    if index == target:
        raise RuntimeError("injected persistent fault")


def _kill_once(marker_path: str, index: int) -> None:
    try:
        fd = os.open(marker_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def _kill_on(target: int, index: int) -> None:
    if index == target:
        os.kill(os.getpid(), signal.SIGKILL)


def _count_then_kill_once(
    counts_path: str, marker_path: str, target: int, index: int
) -> None:
    """Log every execution of a cell; SIGKILL the first one of ``target``."""
    with open(counts_path, "a") as counts:
        counts.write(f"{index}\n")
    if index == target:
        _kill_once(marker_path, index)


def _kill_always(index: int) -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def _sleep_forever(index: int) -> None:
    time.sleep(3600)


def _sleep(seconds: float, index: int) -> None:
    time.sleep(seconds)


def _serial_digests():
    return [
        run_result_digest(execute_cell(cell, CONFIG))
        for cell in CELLS
    ]


def _batch_holding(target: int):
    """The first batch of ``WIDE_PLAN`` on two workers that holds
    ``target`` -- asserted to be multi-cell with ``target`` inside."""
    batch = next(
        b for b in batch_schedule(range(len(WIDE_CELLS)), 2) if target in b
    )
    assert len(batch) > 1 and batch[0] < target
    return batch


def test_batch_schedule_covers_every_index_once_in_order():
    for count in (0, 1, 2, 3, 7, 24, 312, 1000):
        for workers in (1, 2, 3, 8):
            indices = list(range(5, 5 + 2 * count, 2))  # not 0..n-1
            batches = batch_schedule(indices, workers)
            assert [i for b in batches for i in b] == indices
            assert all(batches)
            if batches:
                assert len(batches[-1]) == 1
            sizes = [len(b) for b in batches]
            assert sizes == sorted(sizes, reverse=True)


def test_batch_schedule_of_the_fig9_campaign_is_short():
    batches = batch_schedule(range(312), 2)
    assert len(batches[0]) == 39  # ceil(312 / (4 * 2))
    assert len(batches) <= 40
    assert len(batches[-1]) == 1
    # A 3-cell plan stays one cell per batch, as before batching.
    assert batch_schedule(range(3), 2) == [(0,), (1,), (2,)]


def test_dispatch_matches_serial_execution():
    outcome = LeaseDispatcher(2).dispatch(PLAN, range(len(CELLS)))
    assert sorted(outcome.results) == [0, 1, 2]
    assert not outcome.quarantined and not outcome.lost
    assert not outcome.interrupted
    digests = [
        run_result_digest(outcome.results[i]) for i in range(len(CELLS))
    ]
    assert digests == _serial_digests()


def test_transient_failure_retried_to_success(tmp_path):
    marker = tmp_path / "failed-once"
    dispatcher = LeaseDispatcher(
        2, max_attempts=3, backoff_s=0.01,
        cell_hook=functools.partial(_fail_once, os.fspath(marker), 1),
    )
    outcome = dispatcher.dispatch(PLAN, range(len(CELLS)))
    assert sorted(outcome.results) == [0, 1, 2]
    assert not outcome.quarantined
    assert marker.exists()
    assert dispatcher.rescheduled >= 1


def test_retry_budget_exhaustion_quarantines():
    quarantined = {}
    dispatcher = LeaseDispatcher(
        2, max_attempts=2, backoff_s=0.01,
        cell_hook=functools.partial(_fail_always, 1),
    )
    outcome = dispatcher.dispatch(
        PLAN, range(len(CELLS)),
        on_quarantine=lambda i, record: quarantined.update({i: record}),
    )
    assert sorted(outcome.results) == [0, 2]
    assert list(outcome.quarantined) == [1]
    record = outcome.quarantined[1]
    assert record["attempts"] == 2
    assert record["permanent"] is False
    assert len(record["failures"]) == 2
    assert all(f["reason"] == "failed" for f in record["failures"])
    assert quarantined[1] == record  # callback fired with the record


def test_permanent_error_quarantined_on_first_attempt():
    cells = CELLS + (
        RunCell(
            workload="trace:/nonexistent/poison.csv",
            governor=GovernorSpec.fixed(1000.0),
        ),
    )
    plan = RunPlan(config=CONFIG, cells=cells)
    outcome = LeaseDispatcher(2, max_attempts=5).dispatch(
        plan, range(len(cells))
    )
    assert sorted(outcome.results) == [0, 1, 2]
    record = outcome.quarantined[3]
    assert record["permanent"] is True
    assert record["attempts"] == 1
    assert "WorkloadError" in record["error"]


def test_crashed_worker_reaped_and_cell_reissued(tmp_path):
    marker = tmp_path / "killed-once"
    dispatcher = LeaseDispatcher(
        2, backoff_s=0.01,
        cell_hook=functools.partial(_kill_once, os.fspath(marker)),
    )
    outcome = dispatcher.dispatch(PLAN, range(len(CELLS)))
    assert sorted(outcome.results) == [0, 1, 2]
    assert marker.exists()
    assert dispatcher.restarts >= 1
    assert dispatcher.rescheduled >= 1


def test_killed_batch_never_blames_a_neighbour():
    """A cell that kills its worker mid-batch is quarantined alone: the
    crash charges no attempt to its batch, and the re-issued cell is
    charged once it runs by itself."""
    target = 1
    _batch_holding(target)
    dispatcher = LeaseDispatcher(
        2, max_attempts=1, backoff_s=0.01,
        cell_hook=functools.partial(_kill_on, target),
    )
    outcome = dispatcher.dispatch(WIDE_PLAN, range(len(WIDE_CELLS)))
    assert list(outcome.quarantined) == [target]
    assert not outcome.lost
    others = [i for i in range(len(WIDE_CELLS)) if i != target]
    assert sorted(outcome.results) == others
    serial = [
        run_result_digest(execute_cell(WIDE_CELLS[i], CONFIG))
        for i in others
    ]
    assert [run_result_digest(outcome.results[i]) for i in others] == serial
    record = outcome.quarantined[target]
    assert record["attempts"] == 1
    assert [(f["attempt"], f["reason"]) for f in record["failures"]] == [
        (1, "crashed")
    ]


def test_killed_batch_reruns_only_its_unreported_cells(tmp_path):
    target = 4
    batch = _batch_holding(target)
    counts = tmp_path / "executions"
    dispatcher = LeaseDispatcher(
        2, backoff_s=0.01,
        cell_hook=functools.partial(
            _count_then_kill_once, os.fspath(counts),
            os.fspath(tmp_path / "killed-once"), target,
        ),
    )
    outcome = dispatcher.dispatch(WIDE_PLAN, range(len(WIDE_CELLS)))
    assert sorted(outcome.results) == list(range(len(WIDE_CELLS)))
    assert not outcome.quarantined and not outcome.lost
    runs = [int(line) for line in counts.read_text().split()]
    # The batch's cells up to the kill ran in the dead worker and again
    # alone; the rest of the plan, the batch's tail included, ran once.
    twice = set(batch[:batch.index(target) + 1])
    assert {i: runs.count(i) for i in set(runs)} == {
        i: 2 if i in twice else 1 for i in range(len(WIDE_CELLS))
    }
    assert dispatcher.restarts >= 1
    assert dispatcher.rescheduled >= 1


def test_dead_pool_degrades_instead_of_raising():
    dispatcher = LeaseDispatcher(
        1, max_restarts=0, max_attempts=10, backoff_s=0.01,
        cell_hook=_kill_always,
    )
    outcome = dispatcher.dispatch(PLAN, range(len(CELLS)))
    assert not outcome.results
    assert outcome.lost  # every cell unreachable, none silently dropped
    assert outcome.lost | set(outcome.quarantined) == {0, 1, 2}


def test_max_seconds_interrupts_with_lost_cells():
    dispatcher = LeaseDispatcher(
        1, max_seconds=0.4, cell_hook=_sleep_forever,
    )
    outcome = dispatcher.dispatch(PLAN, range(len(CELLS)))
    assert outcome.interrupted is True
    assert outcome.lost == {0, 1, 2}


def test_deadline_shorter_than_a_batch_still_reports_finished_cells():
    """A worker reports its finished cells once per heartbeat interval,
    so a deadline that ends a multi-cell batch early keeps what ran."""
    first = batch_schedule(range(len(WIDE_CELLS)), 2)[0]
    cell_s, max_seconds = 0.5, 1.2
    assert len(first) * cell_s > max_seconds
    dispatcher = LeaseDispatcher(
        2, lease_s=1.0, max_seconds=max_seconds,
        cell_hook=functools.partial(_sleep, cell_s),
    )
    outcome = dispatcher.dispatch(WIDE_PLAN, range(len(WIDE_CELLS)))
    assert outcome.interrupted is True
    assert outcome.results
    for index, result in outcome.results.items():
        assert run_result_digest(result) == run_result_digest(
            execute_cell(WIDE_CELLS[index], CONFIG)
        )
    assert set(outcome.results) | outcome.lost == set(range(len(WIDE_CELLS)))


class _RacingQueue:
    """Task queue whose first put lets *every* idle worker exit."""

    def __init__(self):
        self.puts = []

    def put(self, item):
        self.puts.append(item)


class _RacingProcess:
    """A worker that looks dead as soon as any STOP has been queued --
    an idle worker that took the first STOP and exited before its own
    liveness check."""

    def __init__(self, queue: _RacingQueue):
        self.queue = queue
        self.joined = False

    def is_alive(self) -> bool:
        return not self.queue.puts

    def join(self, timeout=None):
        self.joined = True


def test_shutdown_sends_one_stop_per_worker_even_when_one_exits_early():
    queue = _RacingQueue()
    workers = [SimpleNamespace(process=_RacingProcess(queue))
               for _ in range(2)]
    _stop_pool(workers, queue)
    # A liveness-gated loop would queue a single STOP here and leave the
    # other worker blocked on the queue until the join timed out.
    assert queue.puts == [_STOP, _STOP]
    assert all(worker.process.joined for worker in workers)


def test_protocol_publishes_typed_events(tmp_path):
    captured = []
    telemetry = TelemetryRecorder()
    telemetry.bus.subscribe(captured.append)
    dispatcher = LeaseDispatcher(
        2, max_attempts=2, backoff_s=0.01, telemetry=telemetry,
        cell_hook=functools.partial(_fail_always, 1),
    )
    dispatcher.dispatch(PLAN, range(len(CELLS)))
    kinds = [event.kind for event in captured]
    assert kinds.count("cell_leased") >= 3
    assert "lease_expired" in kinds  # the retry of the failing cell
    assert "cell_quarantined" in kinds
    quarantine = next(e for e in captured if e.kind == "cell_quarantined")
    assert quarantine.index == 1
    assert quarantine.permanent is False


def test_dispatcher_validation():
    with pytest.raises(CampaignError, match="at least one"):
        LeaseDispatcher(0)
    with pytest.raises(CampaignError, match="max_attempts"):
        LeaseDispatcher(1, max_attempts=0)
    with pytest.raises(CampaignError, match="lease_s"):
        LeaseDispatcher(1, lease_s=0.0)
