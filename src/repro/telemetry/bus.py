"""Typed telemetry events and the in-process event bus.

Every observable moment of the monitor -> estimate -> control loop is a
frozen dataclass deriving from :class:`TelemetryEvent`.  Producers (the
run controller, the fault injector, the campaign dispatcher) publish
events to an :class:`EventBus`; consumers (exporters, tests, live
dashboards) subscribe plain callables.  The 10 ms ticks themselves are
not events: a run publishes them once, at its end, as the columns of
one :class:`TicksRecorded`.

The bus isolates subscribers from each other: an exporter that raises
never interrupts the run loop or starves its neighbours.  Failures are
recorded on :attr:`EventBus.errors`, and a subscriber that keeps failing
is detached after :attr:`EventBus.max_subscriber_errors` strikes.

Timestamps are *simulated* seconds (the machine clock), matching every
other time axis in the package; wall-clock timing lives in
:mod:`repro.telemetry.spans`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, ClassVar, List, Mapping, Sequence

from repro.errors import TelemetryError

#: A subscriber is any callable accepting one event.
Subscriber = Callable[["TelemetryEvent"], None]

#: Field names per event class, filled on first :meth:`to_dict`.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}

#: Value types :meth:`TelemetryEvent.to_dict` passes through unchecked.
_SCALARS = frozenset((float, int, str, bool, type(None)))


@dataclass(frozen=True)
class TelemetryEvent:
    """Base class for all telemetry events.

    ``time_s`` is the simulated timestamp at which the event occurred;
    ``kind`` is a stable machine-readable tag used by exporters (each
    concrete event class overrides it).
    """

    time_s: float

    kind: ClassVar[str] = "event"

    def to_dict(self) -> dict:
        """JSON-safe dict form: ``kind`` plus every dataclass field.

        Mapping values (e.g. a read-only ``rates`` view) become plain
        dicts.  Runs once per event on the observed hot path, so field
        names are cached per class and plain scalars skip the ``Mapping``
        ABC check.
        """
        cls = type(self)
        names = _FIELD_NAMES.get(cls)
        if names is None:
            names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
        out: dict = {"kind": self.kind}
        for name in names:
            value = getattr(self, name)
            if type(value) not in _SCALARS and isinstance(value, Mapping):
                value = dict(value)
            out[name] = value
        return out


@dataclass(frozen=True)
class RunStarted(TelemetryEvent):
    """A controller run began."""

    workload: str
    governor: str

    kind: ClassVar[str] = "run_started"


@dataclass(frozen=True)
class PStateTransition(TelemetryEvent):
    """An actuated DVFS transition (target differed from current)."""

    from_mhz: float
    to_mhz: float

    kind: ClassVar[str] = "transition"


#: The per-tick columns of a :class:`TicksRecorded` record.
TICK_COLUMNS: tuple[str, ...] = (
    "time_s",
    "frequency_mhz",
    "target_mhz",
    "measured_power_w",
    "true_power_w",
    "instructions",
    "duty",
    "temperature_c",
    "interval_s",
    "cycles",
    "estimate_w",
    "limit_w",
)


@dataclass(frozen=True)
class TicksRecorded(TelemetryEvent):
    """One run's per-tick record, as columns (one event per run).

    ``columns`` maps every name in :data:`TICK_COLUMNS` to one value per
    tick.  Tick *t* ends at ``time_s``; it ran ``interval_s`` at
    ``frequency_mhz`` (``cycles`` unhalted cycles, ``instructions``
    retired) and metered ``measured_power_w`` (``true_power_w`` is the
    ground truth) at clock-modulation ``duty`` and ``temperature_c``.
    The governor then chose ``target_mhz``; ``estimate_w`` is its Eq. 2
    estimate of tick *t + 1*'s power (the last one carries over a tick
    that made none) and ``limit_w`` the power limit in force.  ``rates``
    maps PMU event names to the per-cycle rates of the tick's counter
    sample.

    The columns are float sequences with NaN for "no value" (an
    isothermal machine's temperature, a governor with no estimate or no
    limit, an event a multiplexed sample did not cover).  ``time_s`` is
    the run's end.  :class:`~repro.telemetry.exporters.JsonlEventExporter`
    writes the columns as raw doubles to a column file and the line as
    spans into it; :func:`~repro.telemetry.report.load_events` reads
    them back as lists, NaN as None.
    """

    workload: str
    governor: str
    columns: Mapping[str, Sequence[float]]
    rates: Mapping[str, Sequence[float]]

    kind: ClassVar[str] = "ticks"


@dataclass(frozen=True)
class ConstraintChanged(TelemetryEvent):
    """A scheduled runtime constraint change was delivered (SIGUSR path)."""

    label: str

    kind: ClassVar[str] = "constraint"


@dataclass(frozen=True)
class RunFinished(TelemetryEvent):
    """A controller run completed; carries run-level totals."""

    workload: str
    governor: str
    duration_s: float
    instructions: float
    measured_energy_j: float
    transitions: int

    kind: ClassVar[str] = "run_finished"


@dataclass(frozen=True)
class FaultInjected(TelemetryEvent):
    """The fault injector fired one fault into a wrapped component.

    ``subsystem`` names the wrapped interface (``sampler``, ``meter``,
    ``driver``, ``thermal``); ``fault`` the model that fired (``drop``,
    ``duplicate``, ``garble``, ``overflow``, ``drift``, ``dropout``,
    ``spike``, ``transition_fail``, ``transition_stall``, ``stuck``);
    ``detail`` is free-form context (spike factor, stuck reading...).
    """

    subsystem: str
    fault: str
    detail: str = ""

    kind: ClassVar[str] = "fault_injected"


@dataclass(frozen=True)
class FaultRecovered(TelemetryEvent):
    """A hardened consumer absorbed a fault and kept the loop running.

    ``action`` is the recovery path taken: ``holdover`` (last-good
    counter sample reused), ``power_holdover`` (last-good power reading
    reused), ``retry`` (transition retried to success), ``skip``
    (decision skipped, p-state held), ``masked`` (stuck sensor reading
    suppressed).  ``attempts`` counts retries when applicable.
    """

    subsystem: str
    action: str
    attempts: int = 0

    kind: ClassVar[str] = "fault_recovered"


@dataclass(frozen=True)
class WatchdogTripped(TelemetryEvent):
    """The controller's sampler watchdog detected a stalled monitor."""

    consecutive_faults: int

    kind: ClassVar[str] = "watchdog"


@dataclass(frozen=True)
class DegradedModeEntered(TelemetryEvent):
    """The controller gave up on closed-loop control and pinned the
    fail-safe static p-state for the rest of the run."""

    reason: str
    safe_frequency_mhz: float

    kind: ClassVar[str] = "degraded"


@dataclass(frozen=True)
class ModelDriftDetected(TelemetryEvent):
    """The drift detector confirmed the active model no longer fits.

    ``detector`` names the monitor that fired (``page_hinkley`` for the
    power-model residual CUSUM, ``misclassification`` for the
    performance-model class monitor); ``statistic`` is the detector's
    test statistic at the moment it crossed ``threshold``.
    """

    detector: str
    statistic: float
    threshold: float

    kind: ClassVar[str] = "model_drift_detected"


@dataclass(frozen=True)
class ModelRecalibrated(TelemetryEvent):
    """The adaptation manager fitted, registered and hot-swapped a new
    model between control decisions.

    ``version`` is the ModelRegistry version activated; ``refit_mhz``
    lists the p-states whose coefficients came from the online RLS
    estimator (the rest were carried over from the previous model).
    """

    version: int
    refit_mhz: tuple[float, ...]
    residual_mean_w: float
    residual_std_w: float

    kind: ClassVar[str] = "model_recalibrated"


@dataclass(frozen=True)
class ModelRolledBack(TelemetryEvent):
    """A recalibrated model failed probation and the previous registry
    version was re-activated."""

    from_version: int
    to_version: int
    reason: str

    kind: ClassVar[str] = "model_rolled_back"


@dataclass(frozen=True)
class RetryScheduled(TelemetryEvent):
    """The supervisor scheduled a retry of a failed supervised call.

    ``time_s`` is wall-clock seconds since the supervisor started (the
    supervisor lives outside the simulated clock); ``delay_s`` is the
    backoff (jitter included) before the next attempt.
    """

    label: str
    attempt: int
    delay_s: float
    error: str = ""

    kind: ClassVar[str] = "retry_scheduled"


@dataclass(frozen=True)
class CellLeased(TelemetryEvent):
    """The campaign coordinator issued a cell lease to a worker.

    ``time_s`` is wall-clock seconds since the campaign started (the
    coordinator, like the supervisor, lives outside the simulated
    clock).  ``attempt`` is 1-based: a re-issued cell carries the
    attempt number of the new lease.
    """

    cell: str
    index: int
    worker: int
    attempt: int

    kind: ClassVar[str] = "cell_leased"


@dataclass(frozen=True)
class LeaseExpired(TelemetryEvent):
    """A cell lease was reaped (worker death, missed heartbeats, or a
    transient failure) and the cell scheduled for re-issue.

    ``reason`` is ``crashed`` (the leaseholder died), ``expired`` (no
    heartbeat within the lease term), or ``failed`` (the attempt raised
    a transient error); ``retry_in_s`` is the backoff before the cell
    becomes issuable again.
    """

    cell: str
    index: int
    worker: int
    reason: str
    retry_in_s: float

    kind: ClassVar[str] = "lease_expired"


@dataclass(frozen=True)
class CellQuarantined(TelemetryEvent):
    """A cell exhausted its retry budget (or failed permanently) and
    was quarantined; the campaign continues without it.

    ``permanent`` marks a validation failure quarantined on the first
    attempt (see :func:`repro.supervise.is_permanent_error`); ``error``
    is the last failure's ``Type: message`` rendering.
    """

    cell: str
    index: int
    attempts: int
    permanent: bool
    error: str = ""

    kind: ClassVar[str] = "cell_quarantined"


@dataclass(frozen=True)
class CampaignResumed(TelemetryEvent):
    """A campaign invocation found a prior result store and resumed,
    executing only the cells the store does not already hold."""

    store: str
    total: int
    cached: int
    quarantined: int

    kind: ClassVar[str] = "campaign_resumed"



@dataclass(frozen=True)
class SubscriberFailure:
    """Record of one subscriber exception swallowed by the bus."""

    subscriber: str
    event_kind: str
    error: str


class EventBus:
    """Synchronous publish/subscribe hub with per-subscriber isolation.

    Subscribers are called in subscription order.  An exception raised
    by one subscriber is caught, recorded on :attr:`errors`, and does
    not prevent delivery to the remaining subscribers.  A subscriber
    accumulating :attr:`max_subscriber_errors` failures is detached so
    a persistently broken exporter cannot slow the hot loop forever.
    """

    def __init__(self, max_subscriber_errors: int = 5):
        if max_subscriber_errors < 1:
            raise TelemetryError("max_subscriber_errors must be >= 1")
        self.max_subscriber_errors = max_subscriber_errors
        self._subscribers: List[Subscriber] = []
        self._failure_counts: dict[int, int] = {}
        self.errors: List[SubscriberFailure] = []

    @property
    def subscribers(self) -> tuple[Subscriber, ...]:
        """Currently attached subscribers."""
        return tuple(self._subscribers)

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Attach ``subscriber``; returns it for symmetry with unsubscribe."""
        if not callable(subscriber):
            raise TelemetryError("subscriber must be callable")
        if subscriber in self._subscribers:
            raise TelemetryError("subscriber already attached")
        self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Detach ``subscriber``; unknown subscribers raise."""
        try:
            self._subscribers.remove(subscriber)
        except ValueError:
            raise TelemetryError("subscriber not attached") from None
        self._failure_counts.pop(id(subscriber), None)

    def publish(self, event: TelemetryEvent) -> None:
        """Deliver ``event`` to every subscriber, isolating failures."""
        if not self._subscribers:
            return
        broken: list[Subscriber] = []
        for subscriber in tuple(self._subscribers):
            try:
                subscriber(event)
            except Exception as error:  # noqa: BLE001 - isolation by design
                self.errors.append(
                    SubscriberFailure(
                        subscriber=repr(subscriber),
                        event_kind=event.kind,
                        error=f"{type(error).__name__}: {error}",
                    )
                )
                key = id(subscriber)
                self._failure_counts[key] = self._failure_counts.get(key, 0) + 1
                if self._failure_counts[key] >= self.max_subscriber_errors:
                    broken.append(subscriber)
        for subscriber in broken:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)
                self._failure_counts.pop(id(subscriber), None)
