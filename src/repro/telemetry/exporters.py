"""Pluggable telemetry exporters: JSONL events, CSV traces, summaries.

Three export formats cover the three consumers we actually have:

* :class:`JsonlEventExporter` -- every event as one JSON line (a run's
  per-tick record is one line of columns), for machine post-processing
  and the ``telemetry-report`` aggregator;
* :class:`CsvTraceExporter` / :func:`write_trace_csv` -- the per-tick
  trace as CSV.  This is *the* trace-writing code path: the CLI's
  ``--trace`` flag (:func:`trace_row_values`) and the ``--telemetry``
  exporter (:func:`ticks_row_values`) format rows through one
  formatter, so the two files are column-compatible;
* :func:`render_run_summary` -- a human-readable digest of a recorder's
  metrics and spans.

:class:`TelemetryDirectory` bundles the lot behind one output directory
(``events.jsonl``, ``trace.csv``, ``metrics.json``, ``summary.txt``).

Exporters are ordinary bus subscribers; the bus's error isolation means
a full disk or closed handle degrades telemetry, never the run.
"""

from __future__ import annotations

import csv
import json
import os
from typing import IO, Iterable

from repro.errors import TelemetryError
from repro.ioutils import atomic_write_text
from repro.telemetry.bus import TelemetryEvent, TicksRecorded
from repro.telemetry.recorder import TelemetryRecorder

#: Column order shared by every trace CSV this package writes.
TRACE_FIELDS: tuple[str, ...] = (
    "time_s",
    "frequency_mhz",
    "measured_power_w",
    "true_power_w",
    "instructions",
    "duty",
    "temperature_c",
)

EVENTS_FILENAME = "events.jsonl"
TRACE_FILENAME = "trace.csv"
METRICS_FILENAME = "metrics.json"
SUMMARY_FILENAME = "summary.txt"


def _row_values(time_s, frequency_mhz, measured_power_w, true_power_w,
                instructions, duty, temperature_c) -> list[str]:
    """Format one per-tick row (a None or NaN temperature is blank)."""
    return [
        f"{time_s:.4f}",
        f"{frequency_mhz:.0f}",
        f"{measured_power_w:.3f}",
        f"{true_power_w:.3f}",
        f"{instructions:.0f}",
        f"{duty:.3f}",
        "" if temperature_c is None or temperature_c != temperature_c
        else f"{temperature_c:.2f}",
    ]


def trace_row_values(row) -> list[str]:
    """Format one per-tick row: any object exposing the
    :data:`TRACE_FIELDS` attributes (a ``TraceRow``)."""
    return _row_values(*(getattr(row, name) for name in TRACE_FIELDS))


def ticks_row_values(event: TicksRecorded) -> list[list[str]]:
    """Format every row of a run's ``ticks`` record, in tick order."""
    columns = event.columns
    return [
        _row_values(*values)
        for values in zip(*(columns[name] for name in TRACE_FIELDS))
    ]


def write_trace_csv(rows: Iterable, path: str | os.PathLike) -> int:
    """Write a complete per-tick trace CSV; returns the row count."""
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_FIELDS)
        for row in rows:
            writer.writerow(trace_row_values(row))
            count += 1
    return count


class JsonlEventExporter:
    """Bus subscriber appending every event as one JSON line."""

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._handle: IO[str] | None = open(self.path, "w")
        self.events_written = 0

    def __call__(self, event: TelemetryEvent) -> None:
        """Write ``event`` (raises after :meth:`close`; the bus isolates)."""
        if self._handle is None:
            raise TelemetryError(f"exporter for {self.path} is closed")
        # json.dumps takes the C encoder (json.dump to a file does not)
        # and writes the same bytes.
        self._handle.write(json.dumps(event.to_dict()) + "\n")
        self.events_written += 1

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlEventExporter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class CsvTraceExporter:
    """Bus subscriber writing each run's :class:`TicksRecorded` to CSV.

    A run's rows go out in one ``writerows``.  Other events are
    ignored, so the exporter can sit on the same bus as the JSONL log.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._handle: IO[str] | None = open(self.path, "w", newline="")
        self._writer = csv.writer(self._handle)
        self._writer.writerow(TRACE_FIELDS)
        self.rows_written = 0

    def __call__(self, event: TelemetryEvent) -> None:
        """Append a run's rows for ``ticks`` records; ignore the rest."""
        if not isinstance(event, TicksRecorded):
            return
        if self._handle is None:
            raise TelemetryError(f"exporter for {self.path} is closed")
        rows = ticks_row_values(event)
        self._writer.writerows(rows)
        self.rows_written += len(rows)

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CsvTraceExporter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f} ms"
    return f"{seconds * 1e6:.1f} us"


def render_run_summary(recorder: TelemetryRecorder) -> str:
    """Human-readable digest of a recorder's metrics and spans."""
    snap = recorder.metrics.snapshot()
    lines: list[str] = ["run summary", "===========", ""]

    counters = snap["counters"]
    residency = {
        name.rsplit(".", 1)[-1]: value
        for name, value in counters.items()
        if name.startswith("pstate.residency_s.")
    }
    plain = {
        name: value
        for name, value in counters.items()
        if not name.startswith("pstate.residency_s.")
    }
    if plain:
        lines.append("counters:")
        for name, value in plain.items():
            lines.append(f"  {name:32} {value:.6g}")
        lines.append("")
    if residency:
        total = sum(residency.values())
        lines.append("p-state residency:")
        for freq in sorted(residency, key=float):
            seconds = residency[freq]
            share = seconds / total if total else 0.0
            lines.append(f"  {freq:>5} MHz  {seconds:8.3f} s  ({share:.1%})")
        lines.append(f"  {'total':>9}  {total:8.3f} s")
        lines.append("")
    if snap["gauges"]:
        lines.append("gauges:")
        for name, value in snap["gauges"].items():
            lines.append(f"  {name:32} {value:.6g}")
        lines.append("")
    if snap["histograms"]:
        lines.append("histograms:")
        for name, h in snap["histograms"].items():
            if h["count"]:
                lines.append(
                    f"  {name:32} count {h['count']}  mean {h['mean']:.3f}"
                    f"  min {h['min']:.3f}  max {h['max']:.3f}"
                )
            else:
                lines.append(f"  {name:32} (empty)")
        lines.append("")

    spans = recorder.spans.snapshot()
    if spans:
        lines.append("spans (wall clock):")
        for path, s in spans.items():
            lines.append(
                f"  {path:32} count {s['count']:>6}  "
                f"total {_format_seconds(s['total_s'])}  "
                f"mean {_format_seconds(s['mean_s'])}"
            )
        lines.append("")
    return "\n".join(lines)


class TelemetryDirectory:
    """One output directory owning a JSONL log and a live CSV trace.

    Usage::

        recorder = TelemetryRecorder()
        sink = TelemetryDirectory(path)
        sink.attach(recorder)
        ... run ...
        sink.finalize(recorder)   # closes logs, writes metrics + summary
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        try:
            os.makedirs(self.path, exist_ok=True)
        except OSError as error:
            raise TelemetryError(
                f"cannot create telemetry directory {self.path}: {error}"
            ) from error
        self.events = JsonlEventExporter(
            os.path.join(self.path, EVENTS_FILENAME)
        )
        self.trace = CsvTraceExporter(os.path.join(self.path, TRACE_FILENAME))
        self._attached_to = None

    def attach(self, recorder: TelemetryRecorder) -> None:
        """Subscribe both exporters to ``recorder``'s bus."""
        recorder.bus.subscribe(self.events)
        recorder.bus.subscribe(self.trace)
        self._attached_to = recorder

    def finalize(self, recorder: TelemetryRecorder | None = None) -> None:
        """Close the streams and write ``metrics.json`` + ``summary.txt``."""
        recorder = recorder if recorder is not None else self._attached_to
        self.events.close()
        self.trace.close()
        if recorder is None:
            return
        # Atomic: a consumer polling the directory (or a kill landing
        # mid-finalize) must never observe a half-written metrics.json
        # or summary.txt.
        atomic_write_text(
            os.path.join(self.path, METRICS_FILENAME),
            json.dumps(recorder.snapshot(), indent=2) + "\n",
        )
        atomic_write_text(
            os.path.join(self.path, SUMMARY_FILENAME),
            render_run_summary(recorder),
        )
