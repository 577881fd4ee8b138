"""Supervised execution: deadlines, bounded retry, and backoff.

The experiment driver runs real subprocesses (the chaos harness) and
long in-process calls (whole experiments).  Both
need the same supervision primitives a production power-management
daemon would have:

* a **deadline** -- a supervised call that runs past its wall-clock
  budget raises :class:`~repro.errors.DeadlineExceeded`;
* **bounded retry** with exponential backoff and deterministic seeded
  jitter -- transient failures are retried up to ``max_attempts``
  times, each delay multiplied by ``backoff_factor`` and perturbed by
  ``jitter_fraction`` so co-scheduled supervisors do not thundering-herd;
* **permanent-error classification** -- plan/validation failures
  (:data:`PERMANENT_ERROR_TYPES`) are never retried: a malformed
  request fails the same way every time, so it propagates on the first
  attempt instead of burning the backoff budget (the campaign engine
  quarantines such poison cells immediately);
* **telemetry** -- every scheduled retry emits a
  :class:`~repro.telemetry.bus.RetryScheduled` event.

The supervisor deliberately lives *outside* the simulated clock: its
``time_s`` values are wall-clock seconds since construction.  Clock and
sleep are injectable so tests run instantly and deterministically.
"""

from __future__ import annotations

import subprocess
import time
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.errors import (
    DeadlineExceeded,
    FaultError,
    GovernorError,
    PlanError,
    PStateError,
    SupervisionError,
    WorkloadError,
)
from repro.telemetry.bus import RetryScheduled
from repro.telemetry.recorder import TelemetryRecorder

T = TypeVar("T")

#: Error types no amount of retrying can fix: the *request* is
#: malformed (a bad plan, an unknown workload, an invalid argument),
#: not the attempt unlucky.  Backing off and re-running a call that
#: fails validation just burns the retry budget on a foregone
#: conclusion -- the campaign engine relies on this classification to
#: quarantine poison cells after a single attempt.
PERMANENT_ERROR_TYPES: tuple[type[BaseException], ...] = (
    PlanError,
    WorkloadError,
    GovernorError,
    PStateError,
    TypeError,
    ValueError,
)


def is_permanent_error(error: BaseException) -> bool:
    """Whether ``error`` is a validation failure retries cannot fix.

    Injected faults (:class:`~repro.errors.FaultError`) are always
    transient -- they model hardware glitches the next attempt may not
    hit -- even when they also derive from a permanent type.
    """
    if isinstance(error, FaultError):
        return False
    return isinstance(error, PERMANENT_ERROR_TYPES)


@dataclass(frozen=True)
class RetryPolicy:
    """How a supervised call is retried.

    ``backoff_s`` is the delay before the second attempt; each further
    delay is multiplied by ``backoff_factor``.  ``jitter_fraction``
    scales a uniform perturbation of the delay (0.1 = +/-10%).
    ``deadline_s`` bounds the *total* wall-clock time across all
    attempts (None = unbounded).
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    jitter_fraction: float = 0.1
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SupervisionError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_s < 0:
            raise SupervisionError(
                f"backoff_s must be >= 0, got {self.backoff_s}"
            )
        if self.backoff_factor < 1.0:
            raise SupervisionError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise SupervisionError(
                f"jitter_fraction must be in [0, 1], got "
                f"{self.jitter_fraction}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise SupervisionError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )

    def delay_for_attempt(self, attempt: int, jitter: float = 0.0) -> float:
        """Backoff before retrying after failed attempt ``attempt`` (1-based).

        ``jitter`` is a uniform draw in [-1, 1] scaled by
        ``jitter_fraction``; the supervisor supplies it from a seeded
        stream so retry timing is reproducible.
        """
        base = self.backoff_s * self.backoff_factor ** (attempt - 1)
        return max(0.0, base * (1.0 + self.jitter_fraction * jitter))


class Supervisor:
    """Runs callables (and subprocesses) under a :class:`RetryPolicy`.

    ``sleep`` and ``clock`` default to the real wall clock; tests inject
    fakes to run instantly.  ``seed`` feeds the jitter stream, so two
    supervisors with the same seed schedule identical retry delays.
    """

    def __init__(
        self,
        policy: RetryPolicy | None = None,
        telemetry: TelemetryRecorder | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        seed: int = 0,
    ):
        self.policy = policy if policy is not None else RetryPolicy()
        self._tel = (
            telemetry if telemetry is not None and telemetry.enabled else None
        )
        self._sleep = sleep
        self._clock = clock
        self._start = clock()
        self._jitter = np.random.default_rng(seed)
        #: Retries scheduled across this supervisor's lifetime.
        self.retries = 0

    def _now(self) -> float:
        return self._clock() - self._start

    def _remaining(self) -> float | None:
        if self.policy.deadline_s is None:
            return None
        return self.policy.deadline_s - self._now()

    def _check_deadline(self, label: str) -> None:
        remaining = self._remaining()
        if remaining is not None and remaining <= 0:
            raise DeadlineExceeded(
                f"supervised call {label!r} exceeded its "
                f"{self.policy.deadline_s:.3f}s deadline"
            )

    def call(self, fn: Callable[[], T], label: str = "call") -> T:
        """Run ``fn`` with bounded retry; returns its value.

        ``DeadlineExceeded`` is never retried -- once the budget is
        spent the call is abandoned.  Permanent errors
        (:func:`is_permanent_error`: plan/validation failures) propagate
        immediately without burning the backoff budget.  After
        ``max_attempts`` transient failures the last error propagates.
        """
        policy = self.policy
        attempt = 0
        while True:
            attempt += 1
            self._check_deadline(label)
            try:
                return fn()
            except DeadlineExceeded:
                raise
            except Exception as error:  # noqa: BLE001 - retry anything else
                if is_permanent_error(error):
                    raise
                if attempt >= policy.max_attempts:
                    raise
                jitter = float(self._jitter.uniform(-1.0, 1.0))
                delay = policy.delay_for_attempt(attempt, jitter)
                remaining = self._remaining()
                if remaining is not None and delay >= remaining:
                    raise DeadlineExceeded(
                        f"supervised call {label!r} has "
                        f"{remaining:.3f}s left, cannot back off "
                        f"{delay:.3f}s"
                    ) from error
                self.retries += 1
                if self._tel is not None:
                    self._tel.bus.publish(
                        RetryScheduled(
                            time_s=self._now(),
                            label=label,
                            attempt=attempt,
                            delay_s=delay,
                            error=f"{type(error).__name__}: {error}",
                        )
                    )
                self._sleep(delay)

    def run_subprocess(
        self,
        argv: Sequence[str],
        label: str = "subprocess",
        timeout_s: float | None = None,
        check: bool = True,
    ) -> subprocess.CompletedProcess:
        """Run ``argv`` to completion under the deadline.

        ``timeout_s`` caps this invocation; the supervisor deadline (if
        tighter) wins.  With ``check`` a non-zero exit raises
        ``CalledProcessError`` (and is therefore retryable via
        :meth:`call`).
        """
        self._check_deadline(label)
        remaining = self._remaining()
        effective = timeout_s
        if remaining is not None:
            effective = (
                remaining if effective is None else min(effective, remaining)
            )
        try:
            return subprocess.run(
                list(argv),
                capture_output=True,
                text=True,
                timeout=effective,
                check=check,
            )
        except subprocess.TimeoutExpired as error:
            raise DeadlineExceeded(
                f"supervised subprocess {label!r} ran past "
                f"{effective:.3f}s"
            ) from error
