"""Pluggable telemetry exporters: JSONL events, CSV traces, summaries.

Three export formats cover the three consumers we actually have:

* :class:`JsonlEventExporter` -- every event as one JSON line, for
  machine post-processing and the ``telemetry-report`` aggregator.  A
  run's per-tick record (kind ``ticks``) keeps its run key on the line;
  its columns go to a column file beside the log (``events.f64`` next
  to ``events.jsonl``) as raw little-endian IEEE 754 doubles with no
  header, and the line holds one ``[offset, length]`` span per column,
  counted in doubles.  :func:`repro.telemetry.report.load_events`
  resolves the spans back into lists;
* :class:`CsvTraceExporter` / :func:`write_trace_csv` -- the per-tick
  trace as CSV.  This is *the* trace-writing code path: the CLI's
  ``--trace`` flag and the ``--telemetry`` exporter format rows with
  one format string, so the two files are column-compatible;
* :func:`render_run_summary` -- a human-readable digest of a recorder's
  metrics and spans.

:class:`TelemetryDirectory` bundles the lot behind one output directory
(``events.jsonl``, ``events.f64``, ``trace.csv``, ``metrics.json``,
``summary.txt``).

Exporters are ordinary bus subscribers; the bus's error isolation means
a full disk or closed handle degrades telemetry, never the run.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from operator import attrgetter
from typing import IO, Iterable, Mapping, Sequence

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

#: Column files hold little-endian doubles; a big-endian host swaps.
_BIG_ENDIAN = sys.byteorder == "big"

#: One trace row: ``TRACE_FIELDS`` values in order.  The blank form
#: prints nothing of a missing temperature (``%.0s`` truncates the
#: None or NaN to zero characters).  ``\r\n`` ends a row, as
#: :mod:`csv`'s default dialect does.
_ROW_FORMAT = "%.4f,%.0f,%.3f,%.3f,%.0f,%.3f,%.2f\r\n"
_ROW_FORMAT_BLANK = "%.4f,%.0f,%.3f,%.3f,%.0f,%.3f,%.0s\r\n"
_HEADER = ",".join(TRACE_FIELDS) + "\r\n"


def _format_rows(rows: Iterable[tuple]) -> str:
    """Trace CSV lines for ``rows`` of :data:`TRACE_FIELDS` values (a
    None or NaN temperature is blank)."""
    full = _ROW_FORMAT
    blank = _ROW_FORMAT_BLANK
    return "".join(
        (full if (temp := row[6]) is not None and temp == temp else blank)
        % row
        for row in rows
    )


def write_trace_csv(rows: Iterable, path: str | os.PathLike) -> int:
    """Write a complete per-tick trace CSV from objects exposing the
    :data:`TRACE_FIELDS` attributes (``TraceRow``); returns the row
    count."""
    values = list(map(attrgetter(*TRACE_FIELDS), rows))
    with open(path, "w", newline="") as handle:
        handle.write(_HEADER)
        handle.write(_format_rows(values))
    return len(values)


def columns_path(events_path: str | os.PathLike) -> str:
    """The column file beside the JSONL log ``events_path``: its name
    with the extension replaced by ``.f64`` (``events.f64``)."""
    return os.path.splitext(os.fspath(events_path))[0] + ".f64"


#: The fields of a ``ticks`` line that map column names to spans.
_SPAN_FIELDS: tuple[str, ...] = ("columns", "rates")


def spans_fit(record: Mapping, size: int) -> bool:
    """Whether every span of the ``ticks`` line ``record`` lies inside
    a column file of ``size`` doubles.

    A span is ``[offset, length]``, two non-negative ints.  A line
    without span maps fits trivially; anything else (a span past the
    end, a non-span value) marks the line as damaged.
    """
    for name in _SPAN_FIELDS:
        spans = record.get(name)
        if spans is None:
            continue
        if not isinstance(spans, dict):
            return False
        for span in spans.values():
            if not (
                type(span) is list
                and len(span) == 2
                and type(span[0]) is int
                and type(span[1]) is int
                and 0 <= span[0]
                and 0 <= span[1]
                and span[0] + span[1] <= size
            ):
                return False
    return True


def shift_spans(record: dict, base: int) -> None:
    """Move the spans of the ``ticks`` line ``record`` ``base`` doubles
    on (its column file now starts there in a longer one)."""
    for name in _SPAN_FIELDS:
        for span in (record.get(name) or {}).values():
            span[0] += base


def _column_values(data: array, offset: int, length: int) -> list:
    """One span of a column file as a list, NaN (no value) as None."""
    out = data[offset:offset + length].tolist()
    total = sum(out)
    if total != total:  # a NaN (or inf - inf) somewhere
        out = [None if value != value else value for value in out]
    return out


def resolve_spans(record: dict, data: array) -> bool:
    """Replace the spans of the ``ticks`` line ``record`` by the values
    of column-file doubles ``data`` they point at (``{name: [float |
    None, ...]}``, NaN as None).  False, and ``record`` untouched, when
    a span does not fit (:func:`spans_fit`)."""
    if not spans_fit(record, len(data)):
        return False
    for name in _SPAN_FIELDS:
        spans = record.get(name)
        if spans is not None:
            record[name] = {
                key: _column_values(data, *span)
                for key, span in spans.items()
            }
    return True


def read_column_bytes(path: str | os.PathLike) -> bytes:
    """A column file's whole doubles, as stored; empty when the file is
    absent or unreadable.  A torn trailing partial double is dropped."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return b""
    return data[: len(data) - len(data) % 8]


def read_column_file(path: str | os.PathLike) -> array:
    """A column file's doubles (see :func:`read_column_bytes`)."""
    values = array("d")
    values.frombytes(read_column_bytes(path))
    if _BIG_ENDIAN:
        values.byteswap()
    return values


class JsonlEventExporter:
    """Bus subscriber appending every event as one JSON line.

    A ``ticks`` record's columns go to the column file
    (:func:`columns_path`) as raw little-endian doubles; its JSON line
    holds an ``[offset, length]`` span, counted in doubles, in place of
    each column.  A run's columns are written before its line.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self.columns_path = columns_path(self.path)
        self._handle: IO[str] | None = open(self.path, "w")
        try:
            self._columns: IO[bytes] | None = open(self.columns_path, "wb")
        except OSError:
            self._handle.close()
            raise
        #: Doubles written to the column file so far.
        self._offset = 0
        self.events_written = 0

    def _write_columns(self, columns: Mapping[str, Sequence[float]]) -> dict:
        """Append ``columns`` to the column file; returns their spans."""
        write = self._columns.write
        spans = {}
        for name, values in columns.items():
            if (
                _BIG_ENDIAN
                or type(values) is not array
                or values.typecode != "d"
            ):
                values = array("d", values)
                if _BIG_ENDIAN:
                    values.byteswap()
            write(values)
            length = len(values)
            spans[name] = [self._offset, length]
            self._offset += length
        return spans

    def __call__(self, event: TelemetryEvent) -> None:
        """Write ``event`` (raises after :meth:`close`; the bus isolates)."""
        if self._handle is None:
            raise TelemetryError(f"exporter for {self.path} is closed")
        if isinstance(event, TicksRecorded):
            record = {
                "kind": event.kind,
                "time_s": event.time_s,
                "workload": event.workload,
                "governor": event.governor,
                "columns": self._write_columns(event.columns),
                "rates": self._write_columns(event.rates),
            }
        else:
            record = event.to_dict()
        # json.dumps takes the C encoder (json.dump to a file does not)
        # and writes the same bytes.
        self._handle.write(json.dumps(record) + "\n")
        self.events_written += 1

    def close(self) -> None:
        """Flush and close the underlying files (idempotent)."""
        if self._handle is not None:
            # Columns reach the disk before the lines that point at them.
            self._columns.close()
            self._handle.close()
            self._handle = None
            self._columns = None

    def __enter__(self) -> "JsonlEventExporter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class CsvTraceExporter:
    """Bus subscriber writing each run's :class:`TicksRecorded` to CSV.

    A run's rows are formatted into one string and go out in one
    ``write``.  Other events are ignored, so the exporter can sit on the
    same bus as the JSONL log.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._handle: IO[str] | None = open(self.path, "w", newline="")
        self._handle.write(_HEADER)
        self.rows_written = 0

    def __call__(self, event: TelemetryEvent) -> None:
        """Append a run's rows for ``ticks`` records; ignore the rest."""
        if not isinstance(event, TicksRecorded):
            return
        if self._handle is None:
            raise TelemetryError(f"exporter for {self.path} is closed")
        columns = event.columns
        rows = list(zip(*(columns[name] for name in TRACE_FIELDS)))
        self._handle.write(_format_rows(rows))
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
    """One output directory owning a JSONL log (with its column file)
    and a live CSV trace.

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
