"""Telemetry: observability for the monitor -> estimate -> control loop.

The paper's methodology is *built* on observation -- 10 ms counter
sampling feeding estimation and control -- and this subsystem gives the
reproduction the same first-class view of itself:

* :mod:`~repro.telemetry.bus` -- typed events (runs, transitions, one
  columnar per-tick record per run, faults, campaign leases) on a
  subscribe/publish bus with per-subscriber error isolation;
* :mod:`~repro.telemetry.metrics` -- a registry of counters, gauges and
  fixed-bucket histograms (p-state residency, transitions, power-limit
  violations, projection-error distributions);
* :mod:`~repro.telemetry.spans` -- wall-clock spans, one root ``run``
  span per cell (never per tick);
* :mod:`~repro.telemetry.exporters` -- JSONL event logs with their
  column files, CSV per-tick traces, JSON metric snapshots and
  human-readable summaries;
* :mod:`~repro.telemetry.report` -- aggregation of an exported run
  (the ``repro-power telemetry-report`` subcommand).

Everything hangs off a :class:`TelemetryRecorder`; instrumented code
accepts ``None`` (the default) and checks ``enabled`` before any
instrumentation work, so telemetry costs nothing when off.
"""

from repro.telemetry.bus import (
    CampaignResumed,
    CellLeased,
    CellQuarantined,
    ConstraintChanged,
    DegradedModeEntered,
    EventBus,
    FaultInjected,
    FaultRecovered,
    LeaseExpired,
    PStateTransition,
    RunFinished,
    RunStarted,
    SubscriberFailure,
    TelemetryEvent,
    TICK_COLUMNS,
    TicksRecorded,
    WatchdogTripped,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    POWER_BUCKETS_W,
    PROJECTION_ERROR_BUCKETS_W,
)
from repro.telemetry.spans import SpanRecorder, SpanStats
from repro.telemetry.recorder import (
    NULL_RECORDER,
    NullRecorder,
    TelemetryRecorder,
)
from repro.telemetry.exporters import (
    JsonlEventExporter,
    TelemetryDirectory,
    TRACE_FIELDS,
    render_run_summary,
    render_trace_csv,
    write_trace_csv,
)
from repro.telemetry.report import TelemetryReport, load_report, render_report

__all__ = [
    # bus
    "TelemetryEvent",
    "RunStarted",
    "PStateTransition",
    "TicksRecorded",
    "TICK_COLUMNS",
    "ConstraintChanged",
    "RunFinished",
    "FaultInjected",
    "FaultRecovered",
    "CellLeased",
    "LeaseExpired",
    "CellQuarantined",
    "CampaignResumed",
    "WatchdogTripped",
    "DegradedModeEntered",
    "SubscriberFailure",
    "EventBus",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "POWER_BUCKETS_W",
    "PROJECTION_ERROR_BUCKETS_W",
    # spans
    "SpanRecorder",
    "SpanStats",
    # recorder
    "TelemetryRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    # exporters
    "TRACE_FIELDS",
    "JsonlEventExporter",
    "TelemetryDirectory",
    "write_trace_csv",
    "render_trace_csv",
    "render_run_summary",
    # report
    "TelemetryReport",
    "load_report",
    "render_report",
]
