"""Lease-based cell dispatch: batches, heartbeats, reaping, bounded re-issue.

:class:`LeaseDispatcher` is the one process pool: it serves both
:class:`~repro.campaign.engine.Campaign` and
``open_session(workers=N)``.  Cells go to the workers in contiguous
**batches** (:func:`batch_schedule`: guided self-scheduling, large
batches first and single cells at the tail), so the queue, the lease
and the result message are paid once per batch, not once per cell.  A
worker that picks up a batch sends one lease message naming it, runs
its cells in order, and sends the batch's results in one ``done``
message -- or, in a batch that outlasts a heartbeat interval, one per
interval, so finished work never waits long in a worker; its
long-lived heartbeat thread renews the whole batch meanwhile.  The
coordinator still keeps one :class:`Lease` and one expiry deadline per
cell, and treats three distinct conditions as a failed attempt:

* ``crashed`` -- the leaseholder process died (SIGKILL, OOM, segfault);
* ``expired`` -- the leaseholder stopped heartbeating for a full lease
  term (hung, livelocked, or unreachable);
* ``failed``  -- the attempt raised a transient exception (the worker
  reports it at once and goes on with the rest of its batch).

Failure accounting is per cell and never blames a neighbour.  When a
worker holding a multi-cell batch crashes or expires, the coordinator
cannot tell which cell was running, so it charges no attempt and
re-issues the batch's unreported cells as single-cell batches; a
single-cell lease is charged.  A killed worker therefore costs at most
its batch's unreported cells (about a heartbeat interval of finished
work plus the cells not yet started), and a poison cell is charged
only once it runs alone.  Charged attempts are re-issued with
:class:`~repro.supervise.RetryPolicy`-style bounded exponential
backoff (zero jitter, so retry timing is deterministic given the
failure sequence).  A cell that
fails *permanently* (:func:`~repro.supervise.is_permanent_error`: a
malformed plan, an unknown workload -- classified in the worker, which
holds the live exception) or exhausts ``max_attempts`` is
**quarantined** with its complete failure history, and the campaign
continues; one poison cell can no longer take down a 10k-cell sweep.

Every protocol step publishes a typed telemetry event per cell
(:class:`~repro.telemetry.bus.CellLeased`, :class:`~repro.telemetry.
bus.LeaseExpired`, :class:`~repro.telemetry.bus.CellQuarantined`) with
wall-clock timestamps relative to dispatch start, mirroring
:class:`~repro.supervise.Supervisor`'s convention.

Workers report over per-worker pipes (a ``Connection.send`` completes
in the calling thread, so a lease is observable even if the worker is
SIGKILLed on the next instruction), and the coordinator closes the
dequeue-to-lease hole with an idle re-issue sweep -- safe because
cells are deterministic and duplicate completions are ignored.

Expensive derived artifacts (the trained power model, resolved trace
workloads) are primed in the parent via
:func:`repro.exec.cache.prime_for_plan`, so forked workers inherit them
and spawned workers receive them in their init payload.  With a
``telemetry_root`` each worker writes a full telemetry directory under
``<root>/worker-NN/`` for :func:`repro.telemetry.merge.
merge_worker_directories` to fold in afterwards.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.controller import RunResult
from repro.errors import CampaignError
from repro.exec import cache
from repro.exec.core import execute_cell
from repro.exec.plan import RunPlan
from repro.exec.session import set_session
from repro.supervise import RetryPolicy, is_permanent_error
from repro.telemetry.bus import CellLeased, CellQuarantined, LeaseExpired
from repro.telemetry.recorder import TelemetryRecorder

#: Pipe-poll interval; lease expiry and retry release are checked
#: between quiet polls.
_POLL_S = 0.05

#: Quiet seconds before unleased outstanding cells are re-issued.
_REISSUE_IDLE_S = 2.0

#: Sentinel telling a worker to exit.
_STOP = None


def batch_schedule(
    indices: Sequence[int], workers: int
) -> List[Tuple[int, ...]]:
    """Split ``indices`` into contiguous batches, in order.

    Guided self-scheduling: each batch takes ``ceil(remaining / (4 *
    workers))`` of the cells still unbatched, at least one.  The first
    batches are large, so the pool pays its IPC per batch; the last
    are single cells, so the workers finish together.
    """
    batches = []
    start, count = 0, len(indices)
    while start < count:
        size = max(1, math.ceil((count - start) / (4 * workers)))
        batches.append(tuple(indices[start:start + size]))
        start += size
    return batches


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork when the platform has it (workers inherit warm caches
    for free), spawn otherwise."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _beat_loop(send, leased: list, stop: threading.Event,
               heartbeat_s: float) -> None:
    """Heartbeat thread body: renew whichever batch is held until the
    worker exits (``leased[0]`` is the held batch, or None).

    A beat that races its batch's completion names leases the
    coordinator has already dropped, so it is ignored there.
    """
    while not stop.wait(heartbeat_s):
        batch = leased[0]
        if batch is None:
            continue
        try:
            send(("beat", batch, None))
        except (BrokenPipeError, OSError):  # parent gone; cell will notice
            return


def _worker_main(worker_id: int, payload: dict, task_q, conn) -> None:
    """Worker loop: lease batches, heartbeat while executing, report.

    Runs in the child process.  All sends share one lock because the
    heartbeat thread and the main thread write the same pipe.  A forked
    worker inherits the parent's current session; it is cleared first,
    so nothing in it reaches the parent's result store or recorder.
    Each cell carries every option of its run, which is what makes
    worker results bit-identical to serial execution.
    """
    set_session(None)
    cache.install_caches(payload["caches"])
    plan: RunPlan = payload["plan"]
    hook = payload["cell_hook"]
    heartbeat_s = payload["heartbeat_s"]
    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            conn.send(message)

    recorder = None
    sink = None
    root = payload["telemetry_root"]
    if root:
        from repro.telemetry.exporters import TelemetryDirectory

        base = os.path.join(root, f"worker-{worker_id:02d}")
        path = base
        attempt = 1
        while os.path.exists(path):  # earlier dispatches in one session
            path = f"{base}.{attempt}"
            attempt += 1
        recorder = TelemetryRecorder()
        sink = TelemetryDirectory(path)
        sink.attach(recorder)
    leased: list = [None]
    stop = threading.Event()
    beater = threading.Thread(
        target=_beat_loop,
        args=(send, leased, stop, heartbeat_s),
        daemon=True,
    )
    beater.start()
    try:
        while True:
            batch = task_q.get()
            if batch is _STOP:
                break
            send(("lease", batch, None))
            leased[0] = batch
            sent_at = time.monotonic()
            done = []
            for index in batch:
                if done and time.monotonic() - sent_at >= heartbeat_s:
                    # A long batch reports as it goes, so a crash or a
                    # deadline loses at most a heartbeat of its work.
                    send(("done", batch, done))
                    sent_at = time.monotonic()
                    done = []
                try:
                    if hook is not None:
                        hook(index)
                    result = execute_cell(
                        plan.cells[index], plan.config, telemetry=recorder
                    )
                except BaseException as error:  # noqa: BLE001 - shipped upward
                    send((
                        "error",
                        index,
                        (
                            f"{type(error).__name__}: {error}",
                            traceback.format_exc(),
                            is_permanent_error(error),
                        ),
                    ))
                    sent_at = time.monotonic()
                    continue
                done.append((index, result))
            leased[0] = None
            send(("done", batch, done))
    except (BrokenPipeError, OSError):  # parent is gone; die quietly
        pass
    finally:
        stop.set()
        beater.join()
        if sink is not None:
            sink.finalize(recorder)
        conn.close()


@dataclass
class Lease:
    """Coordinator-side record of one issued cell lease."""

    index: int
    worker: int
    attempt: int
    expires_at: float
    #: Cells leased together with this one (its batch's length).
    batch: int = 1


@dataclass
class CellFailure:
    """One failed attempt in a cell's history."""

    attempt: int
    reason: str  # "failed" | "crashed" | "expired"
    error: str

    def to_dict(self) -> dict:
        return {
            "attempt": self.attempt,
            "reason": self.reason,
            "error": self.error,
        }


@dataclass
class DispatchOutcome:
    """Everything one dispatch pass produced."""

    results: Dict[int, RunResult] = field(default_factory=dict)
    quarantined: Dict[int, dict] = field(default_factory=dict)
    lost: set = field(default_factory=set)
    interrupted: bool = False


class _PoolWorker:
    """Parent-side record of one worker process."""

    __slots__ = ("process", "conn", "eof", "wid")

    def __init__(self, process, conn, wid: int):
        self.process = process
        self.conn = conn
        self.eof = False
        self.wid = wid


def _stop_pool(workers, task_q) -> None:
    """Ask every worker to exit, then wait for them.

    One STOP per worker, unconditionally: an idle worker may take a
    STOP meant for another and exit before its own liveness is checked,
    so counting only live workers would leave one blocked on the queue
    until the join times out.  Surplus STOPs are harmless.
    """
    for _ in workers:
        task_q.put(_STOP)
    for worker in workers:
        worker.process.join(timeout=10)


class LeaseDispatcher:
    """Coordinates a plan's pending cells over a worker pool."""

    def __init__(
        self,
        workers: int,
        max_attempts: int = 3,
        lease_s: float = 10.0,
        backoff_s: float = 0.1,
        max_restarts: int = 16,
        telemetry: TelemetryRecorder | None = None,
        telemetry_root: str | os.PathLike | None = None,
        cell_hook: Callable[[int], None] | None = None,
        max_seconds: float | None = None,
    ):
        if workers < 1:
            raise CampaignError("campaigns need at least one worker")
        if max_attempts < 1:
            raise CampaignError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if lease_s <= 0:
            raise CampaignError(f"lease_s must be positive, got {lease_s}")
        self.workers = workers
        self.max_attempts = max_attempts
        self.lease_s = lease_s
        self.heartbeat_s = lease_s / 4.0
        # Zero jitter: retry timing is deterministic given the failures.
        self.retry_policy = RetryPolicy(
            max_attempts=max(2, max_attempts),
            backoff_s=backoff_s,
            jitter_fraction=0.0,
        )
        self.max_restarts = max_restarts
        self.context = _pool_context()
        self._tel = (
            telemetry if telemetry is not None and telemetry.enabled else None
        )
        self.telemetry_root = (
            os.fspath(telemetry_root) if telemetry_root is not None else None
        )
        self._cell_hook = cell_hook
        self.max_seconds = max_seconds
        #: Replacement workers started after crashes.
        self.restarts = 0
        #: Cells re-issued (crash + expiry + transient failure + the
        #: idle sweep).
        self.rescheduled = 0

    # -- internals ---------------------------------------------------------

    def _publish(self, event) -> None:
        if self._tel is not None:
            self._tel.bus.publish(event)

    def _spawn(self, worker_id: int, payload: dict, task_q) -> _PoolWorker:
        parent_conn, child_conn = self.context.Pipe(duplex=False)
        process = self.context.Process(
            target=_worker_main,
            args=(worker_id, payload, task_q, child_conn),
            daemon=True,
            name=f"repro-campaign-{worker_id}",
        )
        process.start()
        child_conn.close()
        return _PoolWorker(process, parent_conn, worker_id)

    # -- the protocol ------------------------------------------------------

    def dispatch(
        self,
        plan: RunPlan,
        indices: Sequence[int],
        on_result: Callable[[int, RunResult], None] | None = None,
        on_quarantine: Callable[[int, dict], None] | None = None,
    ) -> DispatchOutcome:
        """Run ``plan.cells[i]`` for every ``i`` in ``indices``.

        ``on_result`` fires in the coordinator once per cell, in index
        order, as the cell's batch reports, and ``on_quarantine`` the
        moment a cell is quarantined (the campaign engine uses them to
        write the store per cell, so an interrupt loses at most the
        running batches' unreported cells, and a worker reports its
        finished cells at least once per heartbeat interval).  Returns a
        :class:`DispatchOutcome`; cells still non-terminal after an
        interrupt or the ``max_seconds`` deadline are in ``lost``.
        """
        outcome = DispatchOutcome()
        if not indices:
            return outcome
        cache.prime_for_plan(plan, indices)
        payload = {
            "plan": plan,
            "caches": cache.export_caches(),
            "heartbeat_s": self.heartbeat_s,
            "telemetry_root": self.telemetry_root,
            "cell_hook": self._cell_hook,
        }
        task_q = self.context.Queue()
        count = min(self.workers, len(indices))
        for batch in batch_schedule(indices, count):
            task_q.put(batch)
        workers: Dict[int, _PoolWorker] = {
            wid: self._spawn(wid, payload, task_q) for wid in range(count)
        }
        state = {
            "outstanding": set(indices),
            "leases": {},        # index -> Lease
            "attempts": {},      # index -> lease count so far
            "failures": {},      # index -> [CellFailure, ...]
            "retry_at": {},      # index -> wall clock release time
            "outcome": outcome,
            "plan": plan,
            "on_result": on_result,
            "on_quarantine": on_quarantine,
            "task_q": task_q,
            "start": time.monotonic(),
            "progressed": False,
        }
        next_id = count
        idle_s = 0.0
        reissued_idle = False
        try:
            while state["outstanding"]:
                now = time.monotonic()
                if (
                    self.max_seconds is not None
                    and now - state["start"] >= self.max_seconds
                ):
                    outcome.interrupted = True
                    break
                self._release_due_retries(state, now)
                conns = [w.conn for w in workers.values() if not w.eof]
                if conns:
                    ready = mp_connection.wait(conns, timeout=_POLL_S)
                else:
                    ready = []
                    time.sleep(_POLL_S)
                state["progressed"] = False
                by_conn = {w.conn: w for w in workers.values()}
                for conn in ready:
                    self._drain(by_conn[conn], state)
                self._expire_leases(state)
                next_id = self._reap_crashed(
                    workers, payload, task_q, next_id, state
                )
                if state["outstanding"] and not workers:
                    # The pool is gone and cannot be refilled: every
                    # non-terminal cell (queued, leased, or waiting on
                    # a retry) is unreachable.  Degrade, don't raise.
                    outcome.lost |= state["outstanding"]
                    state["outstanding"].clear()
                    break
                if state["progressed"]:
                    idle_s = 0.0
                    reissued_idle = False
                    continue
                idle_s += _POLL_S
                if (
                    state["outstanding"]
                    and not reissued_idle
                    and idle_s >= _REISSUE_IDLE_S
                ):
                    reissued_idle = self._reissue_unleased(workers, state)
            if not outcome.interrupted:
                # An interrupted pass's leaseholders are terminated
                # below: their cells are already lost.
                _stop_pool(list(workers.values()), task_q)
        except KeyboardInterrupt:
            outcome.interrupted = True
        finally:
            outcome.lost |= state["outstanding"]
            for worker in workers.values():
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=5)
                worker.conn.close()
            task_q.close()
        return outcome

    # -- coordinator steps -------------------------------------------------

    def _now_s(self, state: dict) -> float:
        return time.monotonic() - state["start"]

    def _release_due_retries(self, state: dict, now: float) -> None:
        due = [i for i, t in state["retry_at"].items() if t <= now]
        for index in due:
            del state["retry_at"][index]
            if index in state["outstanding"]:
                state["task_q"].put((index,))

    def _drain(self, worker: _PoolWorker, state: dict) -> None:
        """Handle every message currently readable from one worker."""
        wid = worker.wid
        while True:
            try:
                if not worker.conn.poll():
                    return
                kind, key, body = worker.conn.recv()
            except (EOFError, OSError):
                worker.eof = True
                return
            state["progressed"] = True
            if kind == "lease":  # key: the batch
                now = time.monotonic()
                for index in key:
                    if index not in state["outstanding"]:
                        continue  # late duplicate of a terminal cell
                    attempt = state["attempts"].get(index, 0) + 1
                    state["attempts"][index] = attempt
                    state["leases"][index] = Lease(
                        index=index,
                        worker=wid,
                        attempt=attempt,
                        expires_at=now + self.lease_s,
                        batch=len(key),
                    )
                    self._publish(CellLeased(
                        time_s=self._now_s(state),
                        cell=state["plan"].cells[index].label,
                        index=index,
                        worker=wid,
                        attempt=attempt,
                    ))
            elif kind == "beat":  # key: the batch
                expires_at = time.monotonic() + self.lease_s
                for index in key:
                    lease = state["leases"].get(index)
                    if lease is not None and lease.worker == wid:
                        lease.expires_at = expires_at
            elif kind == "done":  # body: the batch's (index, result) pairs
                for index, result in body:
                    state["leases"].pop(index, None)
                    if index not in state["outstanding"]:
                        continue  # duplicate completion: first wins
                    state["outstanding"].discard(index)
                    state["outcome"].results[index] = result
                    if state["on_result"] is not None:
                        state["on_result"](index, result)
            else:  # "error"; key: the cell
                state["leases"].pop(key, None)
                summary, tb, permanent = body
                self._record_failure(
                    state, key, wid,
                    reason="failed", error=summary, permanent=permanent,
                    detail=tb,
                )

    def _expire_leases(self, state: dict) -> None:
        now = time.monotonic()
        for index, lease in list(state["leases"].items()):
            if now <= lease.expires_at:
                continue
            del state["leases"][index]
            self._lease_lost(
                state, lease,
                reason="expired",
                error=(
                    f"lease expired after {self.lease_s:.1f}s without a "
                    "heartbeat"
                ),
            )

    def _reap_crashed(
        self, workers: Dict[int, _PoolWorker], payload: dict, task_q,
        next_id: int, state: dict,
    ) -> int:
        for wid, worker in list(workers.items()):
            if worker.process.is_alive():
                continue
            self._drain(worker, state)  # anything buffered before death
            worker.conn.close()
            del workers[wid]
            held = [
                lease for lease in state["leases"].values()
                if lease.worker == wid
            ]
            for lease in held:
                del state["leases"][lease.index]
                self._lease_lost(
                    state, lease,
                    reason="crashed",
                    error=(
                        f"worker {wid} died "
                        f"(exit {worker.process.exitcode})"
                    ),
                )
            if not held and worker.process.exitcode == 0:
                continue  # clean early exit: nothing was in flight
            if self.restarts >= self.max_restarts:
                continue  # pool shrinks; dispatch degrades if it empties
            self.restarts += 1
            workers[next_id] = self._spawn(next_id, payload, task_q)
            next_id += 1
        return next_id

    def _reissue_unleased(self, workers, state: dict) -> bool:
        """Re-issue outstanding cells no lease, retry or queue covers.

        Closes the hole a lease cannot: a worker killed after dequeuing
        a batch but before its (synchronous) lease send.  Only fires
        when some worker sits idle -- an idle worker plus a quiet pipe
        means those cells are neither queued nor being computed.  Each
        cell goes out alone; a copy that races its still-queued batch
        is a duplicate, and the first completion wins.
        """
        leased = set(state["leases"])
        waiting = set(state["retry_at"])
        candidates = sorted(
            state["outstanding"] - leased - waiting
        )
        idle_worker = any(
            not any(
                lease.worker == wid for lease in state["leases"].values()
            )
            for wid in workers
        )
        if not candidates or not idle_worker:
            return False
        for index in candidates:
            state["task_q"].put((index,))
        self.rescheduled += len(candidates)
        return True

    def _lease_lost(
        self, state: dict, lease: Lease, reason: str, error: str,
    ) -> None:
        """A lease ended without a report: its holder crashed or expired.

        A single-cell lease is a failed attempt.  In a multi-cell batch
        the running cell is unknown, so no attempt is charged: the cell
        goes back on the queue alone, where a failure is its own.
        """
        if lease.batch == 1:
            self._record_failure(
                state, lease.index, lease.worker, reason=reason, error=error
            )
            return
        state["attempts"][lease.index] = lease.attempt - 1
        self._retry(state, lease.index, lease.worker, reason, delay=0.0)

    def _record_failure(
        self, state: dict, index: int, wid: int, reason: str, error: str,
        permanent: bool = False, detail: str = "",
    ) -> None:
        if index not in state["outstanding"]:
            return
        attempt = state["attempts"].get(index, 0)
        history: List[CellFailure] = state["failures"].setdefault(index, [])
        history.append(
            CellFailure(attempt=max(attempt, 1), reason=reason, error=error)
        )
        label = state["plan"].cells[index].label
        if permanent or attempt >= self.max_attempts:
            state["outstanding"].discard(index)
            record = {
                "cell": label,
                "index": index,
                "attempts": max(attempt, 1),
                "permanent": permanent,
                "error": error,
                "failures": [f.to_dict() for f in history],
            }
            if detail:
                record["traceback"] = detail
            state["outcome"].quarantined[index] = record
            self._publish(CellQuarantined(
                time_s=self._now_s(state),
                cell=label,
                index=index,
                attempts=max(attempt, 1),
                permanent=permanent,
                error=error,
            ))
            if state["on_quarantine"] is not None:
                state["on_quarantine"](index, record)
            return
        delay = self.retry_policy.delay_for_attempt(max(attempt, 1))
        self._retry(state, index, wid, reason, delay)

    def _retry(
        self, state: dict, index: int, wid: int, reason: str, delay: float,
    ) -> None:
        """Queue ``index`` alone again after ``delay`` seconds."""
        state["retry_at"][index] = time.monotonic() + delay
        self.rescheduled += 1
        self._publish(LeaseExpired(
            time_s=self._now_s(state),
            cell=state["plan"].cells[index].label,
            index=index,
            worker=wid,
            reason=reason,
            retry_in_s=delay,
        ))
