"""The recorder facade: one handle bundling bus, metrics and spans.

Instrumented code takes a :class:`TelemetryRecorder` (or ``None``) and
guards every instrumentation block on ``recorder.enabled`` so that a
disabled recorder -- or no recorder at all -- costs nothing beyond a
branch per block.  :data:`NULL_RECORDER` is the shared no-op instance
for call sites that want unconditional attribute access.

Code called many layers deep (the CLI's ``experiment`` subcommand wraps
whole experiment modules) finds its recorder on the current
:class:`~repro.exec.session.ExecSession`::

    with open_session(telemetry=recorder):
        run_section(module, config)   # every cell it runs records
"""

from __future__ import annotations

from repro.telemetry.bus import EventBus, TelemetryEvent
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanRecorder, _Span


class TelemetryRecorder:
    """Bundles an event bus, a metrics registry and a span recorder.

    ``enabled`` is the single switch hot paths check before doing any
    instrumentation work (constructing events, observing histograms).
    """

    enabled: bool = True

    def __init__(
        self,
        bus: EventBus | None = None,
        metrics: MetricsRegistry | None = None,
        spans: SpanRecorder | None = None,
    ):
        self.bus = bus if bus is not None else EventBus()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans = spans if spans is not None else SpanRecorder()

    def emit(self, event: TelemetryEvent) -> None:
        """Publish ``event`` on the bus."""
        self.bus.publish(event)

    def span(self, name: str) -> _Span:
        """A wall-clock span context manager (see :mod:`.spans`)."""
        return self.spans.span(name)

    def snapshot(self) -> dict:
        """Combined JSON-safe metrics + spans snapshot."""
        return {"metrics": self.metrics.snapshot(),
                "spans": self.spans.snapshot()}


class _NullSpan:
    """Reusable do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder(TelemetryRecorder):
    """A recorder that records nothing.

    It still owns (empty) bus/metrics/spans objects so code that does
    not bother checking ``enabled`` keeps working; ``emit`` and ``span``
    themselves are no-ops.
    """

    enabled = False

    def emit(self, event: TelemetryEvent) -> None:
        """Discard the event."""

    def span(self, name: str) -> _NullSpan:  # type: ignore[override]
        """A shared no-op context manager."""
        return _NULL_SPAN


#: Shared no-op recorder for unconditional call sites.
NULL_RECORDER = NullRecorder()
