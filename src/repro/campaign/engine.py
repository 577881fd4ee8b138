"""The campaign engine: store + lease dispatch + graceful degradation.

A :class:`Campaign` turns one :class:`~repro.exec.plan.RunPlan` into a
*resumable* unit of work.  Each invocation:

1. builds every cell's spec once and digests it
   (:func:`~repro.campaign.store.cell_digest`), then consults the
   :class:`~repro.campaign.store.ResultStore` -- cached cells are
   served after bit-identity verification, previously quarantined
   cells stay quarantined (``campaign retry`` clears them), and only
   the remainder dispatches;
2. takes the store's writer lock (a second live writer is refused
   before any cell runs) and runs the remainder through the
   :class:`~repro.campaign.dispatch.LeaseDispatcher`, appending every
   completed cell to the results log *as its batch reports* (a worker
   reports at least once per heartbeat interval) -- each record is
   kill-safe when its put returns -- and writing every quarantine
   record the moment it is decided;
3. fsyncs the log once, in a ``finally`` that runs on a normal end, an
   interrupt, a timeout or a lost pool, and releases the lock;
4. returns a :class:`CampaignResult` that is valid even when the run
   was interrupted (SIGINT), timed out, or lost its worker pool --
   ``degraded`` flags any shortfall, and the next invocation resumes
   from the store, executing only what is still missing.  A power loss
   can drop only records appended since the last fsync; they re-execute.

The engine never raises for a failing *cell*; it raises only for an
unusable store or an undispatchable configuration
(:class:`~repro.errors.CampaignError`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Mapping

from repro.core.controller import RunResult
from repro.exec.plan import RunPlan
from repro.campaign.dispatch import LeaseDispatcher
from repro.campaign.store import (
    ResultStore,
    plan_digests,
    plan_keys,
)
from repro.telemetry.bus import CampaignResumed
from repro.telemetry.recorder import TelemetryRecorder


@dataclass(frozen=True)
class CampaignResult:
    """What one campaign invocation achieved, complete or not.

    ``results`` is in cell order with ``None`` holes for quarantined /
    lost cells.  ``degraded`` is the single flag consumers check: True
    whenever the invocation ended with any cell short of a verified
    result.
    """

    total: int
    #: Indices executed by *this* invocation.
    executed: tuple[int, ...]
    #: Indices served from the store (bit-identity verified).
    cached: tuple[int, ...]
    #: Indices quarantined (this invocation or a previous one).
    quarantined: tuple[int, ...]
    #: Indices with no result: interrupt, timeout, or a dead pool.
    lost: tuple[int, ...]
    #: Whether the invocation was cut short (SIGINT / max_seconds).
    interrupted: bool
    #: Whether this invocation found prior state in the store.
    resumed: bool
    #: Per-cell content digests (cell order).
    digests: tuple[str, ...]
    #: Per-cell results (cell order; None for quarantined/lost cells).
    results: tuple[RunResult | None, ...]

    @property
    def completed(self) -> int:
        """Cells with a verified result (executed + cached)."""
        return len(self.executed) + len(self.cached)

    @property
    def degraded(self) -> bool:
        """Whether anything fell short of a verified result."""
        return bool(self.quarantined or self.lost or self.interrupted)

    def to_dict(self) -> dict:
        """JSON-safe summary (counts and flags; no result payloads)."""
        return {
            "total": self.total,
            "executed": len(self.executed),
            "cached": len(self.cached),
            "quarantined": len(self.quarantined),
            "lost": len(self.lost),
            "completed": self.completed,
            "interrupted": self.interrupted,
            "resumed": self.resumed,
            "degraded": self.degraded,
        }


class Campaign:
    """One plan bound to one store, runnable (and re-runnable)."""

    def __init__(
        self,
        plan: RunPlan,
        store: ResultStore | str | os.PathLike,
        workers: int = 2,
        max_attempts: int = 3,
        lease_s: float = 10.0,
        backoff_s: float = 0.1,
        max_restarts: int = 16,
        telemetry: TelemetryRecorder | None = None,
        telemetry_root: str | os.PathLike | None = None,
        cell_hook=None,
        max_seconds: float | None = None,
    ):
        self.plan = plan
        self.store = (
            store if isinstance(store, ResultStore) else ResultStore(store)
        )
        self.telemetry = telemetry
        self.dispatcher = LeaseDispatcher(
            workers=workers,
            max_attempts=max_attempts,
            lease_s=lease_s,
            backoff_s=backoff_s,
            max_restarts=max_restarts,
            telemetry=telemetry,
            telemetry_root=telemetry_root,
            cell_hook=cell_hook,
            max_seconds=max_seconds,
        )

    def _publish(self, event) -> None:
        if self.telemetry is not None and self.telemetry.enabled:
            self.telemetry.bus.publish(event)

    def run(self) -> CampaignResult:
        """Execute (or resume) the campaign; always returns a result."""
        plan = self.plan
        store = self.store
        specs, digests = plan_keys(plan)
        results, quarantined, pending, aliases = store.lookup(digests)
        cached = sorted(results)
        resumed = store.preexisting and (bool(cached) or bool(quarantined))
        if resumed:
            self._publish(CampaignResumed(
                time_s=0.0,
                store=store.root,
                total=len(plan.cells),
                cached=len(cached),
                quarantined=len(quarantined),
            ))

        def on_result(index: int, result: RunResult) -> None:
            store.put(digests[index], specs[index], result)

        def on_quarantine(index: int, record: Mapping) -> None:
            record = dict(record)
            record["digest"] = digests[index]
            record["quarantined_at"] = time.time()
            store.write_quarantine(digests[index], record)

        try:
            if pending:
                store.open_writer()
            outcome = self.dispatcher.dispatch(
                plan, pending,
                on_result=on_result, on_quarantine=on_quarantine,
            )
        finally:
            store.close()  # the invocation's one fsync
        results.update(outcome.results)
        quarantined.extend(sorted(outcome.quarantined))
        executed = sorted(outcome.results)
        lost = sorted(outcome.lost)
        # Fan shared-digest results (and shortfalls) out to aliases.
        for primary, extra in aliases.items():
            for index in extra:
                if primary in results:
                    results[index] = results[primary]
                    if primary in cached or primary in executed:
                        cached.append(index)
                elif primary in quarantined:
                    quarantined.append(index)
                else:
                    lost.append(index)
        return CampaignResult(
            total=len(plan.cells),
            executed=tuple(executed),
            cached=tuple(sorted(cached)),
            quarantined=tuple(sorted(quarantined)),
            lost=tuple(sorted(lost)),
            interrupted=outcome.interrupted,
            resumed=resumed,
            digests=tuple(digests),
            results=tuple(
                results.get(index) for index in range(len(plan.cells))
            ),
        )

    def retry_quarantined(self) -> int:
        """Clear this plan's quarantine records; returns how many."""
        return sum(
            self.store.clear_quarantine(digest)
            for digest in plan_digests(self.plan)
        )


def run_campaign(
    plan: RunPlan, store: ResultStore | str | os.PathLike, **kwargs
) -> CampaignResult:
    """One-shot convenience wrapper around :class:`Campaign`."""
    return Campaign(plan, store, **kwargs).run()
