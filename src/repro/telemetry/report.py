"""Aggregation of an exported telemetry directory.

``repro-power telemetry-report <dir>`` reads what a
:class:`~repro.telemetry.exporters.TelemetryDirectory` wrote --
``events.jsonl`` with its column file ``events.f64``, and
``metrics.json`` -- and renders a digest: runs and their totals, event
counts by kind, transition activity, trace statistics and per-cell
wall-clock spans.
:func:`load_events` is the one reader of an event log: it resolves
each ``ticks`` line's spans into the column file back into per-tick
lists, so every consumer sees the values the run recorded.

From the runs' ``ticks`` records it answers the paper's own questions:
p-state residency per MHz, the Eq. 2 residual (the power a governor
estimated for the next tick minus what the meter then read), and the
windows of consecutive ticks metered above the governor's power limit.
Sums use :func:`math.fsum` and runs are listed sorted, so a directory
merged from parallel workers reports exactly what a serial one does
(wall-clock spans aside).
"""

from __future__ import annotations

import json
import math
import os
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from repro.errors import TelemetryError
from repro.telemetry.exporters import (
    EVENTS_FILENAME,
    METRICS_FILENAME,
    columns_path,
    read_column_file,
    resolve_spans,
)


@dataclass
class TelemetryReport:
    """Parsed + aggregated contents of one telemetry directory."""

    directory: str
    events: List[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)
    #: Malformed/truncated JSONL lines skipped while loading the log.
    skipped_lines: int = 0
    #: True when the final event line was torn mid-write (the
    #: expected signature of a SIGKILL'd run), as opposed to interior
    #: corruption counted in ``skipped_lines``.
    truncated_tail: bool = False

    @property
    def event_counts(self) -> Mapping[str, int]:
        """Event count per kind."""
        counts: dict[str, int] = {}
        for event in self.events:
            kind = event.get("kind", "?")
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    @property
    def runs(self) -> List[dict]:
        """The ``run_finished`` payloads, in completion order."""
        return [e for e in self.events if e.get("kind") == "run_finished"]

    @property
    def tick_count(self) -> int:
        """Ticks recorded over every run."""
        return sum(
            len(columns.get("time_s", ())) for columns in self.tick_columns
        )

    @property
    def mean_measured_power_w(self) -> float:
        """Mean measured power over every recorded tick (0.0 when none),
        each reading rounded to the mW as the trace CSV prints it."""
        values = [
            float(f"{watts:.3f}")
            for columns in self.tick_columns
            for watts in columns.get("measured_power_w", ())
            if watts is not None
        ]
        if not values:
            return 0.0
        return math.fsum(values) / len(values)

    @property
    def tick_columns(self) -> List[dict]:
        """The columns of every ``ticks`` record (one per run)."""
        return [
            e["columns"]
            for e in self.events
            if e.get("kind") == "ticks" and isinstance(e.get("columns"), dict)
        ]

    @property
    def residency_s(self) -> Dict[float, float]:
        """Seconds per p-state frequency (MHz) over every recorded tick."""
        seconds: Dict[float, list] = {}
        for columns in self.tick_columns:
            for freq, interval in zip(
                columns.get("frequency_mhz", ()), columns.get("interval_s", ())
            ):
                seconds.setdefault(freq, []).append(interval)
        return {freq: math.fsum(values) for freq, values in seconds.items()}

    @property
    def eq2_residuals_w(self) -> List[float]:
        """Each Eq. 2 estimate minus the power metered on the tick it
        was made for (the next tick of the same run)."""
        residuals: List[float] = []
        for columns in self.tick_columns:
            measured = columns.get("measured_power_w", [])
            residuals.extend(
                estimate - watts
                for estimate, watts in zip(
                    columns.get("estimate_w", ()), measured[1:]
                )
                if estimate is not None
            )
        return residuals

    @property
    def violation_windows(self) -> List[int]:
        """Lengths of the runs of consecutive ticks metered above the
        governor's power limit (a window never spans two runs)."""
        windows: List[int] = []
        for columns in self.tick_columns:
            length = 0
            for watts, limit in zip(
                columns.get("measured_power_w", ()), columns.get("limit_w", ())
            ):
                if limit is not None and watts > limit:
                    length += 1
                elif length:
                    windows.append(length)
                    length = 0
            if length:
                windows.append(length)
        return windows


def load_events(path: str | os.PathLike) -> tuple[List[dict], int, bool]:
    """Parse a JSONL event log and its column file, tolerating damage.

    Each ``ticks`` line's ``[offset, length]`` spans are resolved
    against the column file beside the log
    (:func:`~repro.telemetry.exporters.columns_path`): the event's
    ``columns`` and ``rates`` become ``{name: [float | None, ...]}``,
    NaN read back as None.

    A journal from a crashed or killed run is routinely truncated
    mid-line, and a corrupted disk can garble arbitrary lines; neither
    should make the *report* fail.  Returns ``(events,
    skipped_line_count, truncated_tail)``: a malformed *final* line
    with no trailing newline is the expected tear of a SIGKILL'd run
    and is reported as ``truncated_tail`` rather than counted with the
    interior damage in ``skipped_line_count``.  A ``ticks`` line whose
    spans run past the end of the column file (its columns never
    reached the disk) is dropped and counted as skipped.
    """
    events: List[dict] = []
    skipped = 0
    truncated_tail = False
    columns: array | None = None  # read on the first ticks line
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise TelemetryError(f"cannot read event log {path}: {error}") from None
    text = data.decode(errors="replace")
    complete_tail = text.endswith("\n")
    lines = text.splitlines()
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            if index == len(lines) - 1 and not complete_tail:
                truncated_tail = True
            else:
                skipped += 1
            continue
        if not isinstance(event, dict):
            skipped += 1
            continue
        if event.get("kind") == "ticks":
            if columns is None:
                columns = read_column_file(columns_path(path))
            if not resolve_spans(event, columns):
                skipped += 1
                continue
        events.append(event)
    return events, skipped, truncated_tail


def load_report(directory: str | os.PathLike) -> TelemetryReport:
    """Read every file a :class:`TelemetryDirectory` produces."""
    directory = os.fspath(directory)
    events_path = os.path.join(directory, EVENTS_FILENAME)
    if not os.path.isdir(directory):
        raise TelemetryError(f"no such telemetry directory: {directory}")
    if not os.path.exists(events_path):
        raise TelemetryError(
            f"{directory} has no {EVENTS_FILENAME}; was it written with "
            "--telemetry?"
        )
    report = TelemetryReport(directory=directory)
    report.events, report.skipped_lines, report.truncated_tail = load_events(
        events_path
    )

    metrics_path = os.path.join(directory, METRICS_FILENAME)
    if os.path.exists(metrics_path):
        try:
            with open(metrics_path) as handle:
                snapshot = json.load(handle)
        except (OSError, json.JSONDecodeError):
            snapshot = {}  # a truncated snapshot degrades, never raises
        if isinstance(snapshot, dict):
            report.metrics = snapshot.get("metrics", {})
            report.spans = snapshot.get("spans", {})
    return report


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    return f"{seconds * 1e3:.3f} ms"


def _run_key(run: dict) -> tuple:
    """Runs render in this order, not completion order, so a log merged
    from parallel workers renders like a serial one."""
    return tuple(
        str(run.get(name)) for name in
        ("workload", "governor", "duration_s", "instructions",
         "measured_energy_j", "transitions")
    )


def _render_ticks(
    report: TelemetryReport, tick_columns: List[dict]
) -> List[str]:
    """The residency, Eq. 2 residual and limit-violation sections."""
    lines = [
        f"p-state residency ({report.tick_count} ticks in "
        f"{len(tick_columns)} runs):"
    ]
    residency = report.residency_s
    total = math.fsum(residency.values())
    for freq in sorted(residency):
        seconds = residency[freq]
        share = seconds / total if total else 0.0
        lines.append(f"  {freq:>5.0f} MHz  {seconds:8.3f} s  ({share:.1%})")
    lines.append("")

    residuals = report.eq2_residuals_w
    if residuals:
        lines.append("Eq. 2 residuals (estimate minus next tick's metered W):")
        lines.append(
            f"  count {len(residuals)}  "
            f"mean {math.fsum(residuals) / len(residuals):+.3f} W  "
            f"min {min(residuals):+.3f} W  max {max(residuals):+.3f} W"
        )
    else:
        lines.append("Eq. 2 residuals: none (no governor made an estimate)")
    lines.append("")

    windows = report.violation_windows
    lines.append(
        f"limit violations: {len(windows)} windows above the limit, "
        f"longest {max(windows, default=0)} ticks, "
        f"{sum(windows)} ticks in all"
    )
    lines.append("")
    return lines


def render_report(directory: str | os.PathLike) -> str:
    """Aggregate ``directory`` and render the human-readable report."""
    report = load_report(directory)
    lines = [f"telemetry report: {report.directory}", ""]

    lines.append(f"events ({len(report.events)} total):")
    for kind, count in sorted(report.event_counts.items()):
        lines.append(f"  {kind:16} {count}")
    if report.skipped_lines:
        lines.append(
            f"  (skipped {report.skipped_lines} malformed journal lines)"
        )
    if report.truncated_tail:
        lines.append(
            "  (final line torn mid-write -- run was killed; ignored)"
        )
    lines.append("")

    for run in sorted(report.runs, key=_run_key):
        lines.append(
            f"run: {run.get('workload')} under {run.get('governor')}"
        )
        lines.append(f"  duration     {run.get('duration_s', 0.0):.3f} s")
        lines.append(
            f"  instructions {run.get('instructions', 0.0) / 1e9:.3f} G"
        )
        lines.append(
            f"  energy       {run.get('measured_energy_j', 0.0):.2f} J"
        )
        lines.append(f"  transitions  {run.get('transitions', 0)}")
        lines.append("")

    if report.tick_count:
        lines.append(f"trace: {report.tick_count} ticks, mean measured "
                     f"power {report.mean_measured_power_w:.2f} W")
        lines.append("")

    tick_columns = report.tick_columns
    if tick_columns:
        lines.extend(_render_ticks(report, tick_columns))

    counters = report.metrics.get("counters", {})
    violations = counters.get("controller.limit_violations")
    ticks = counters.get("controller.ticks")
    if ticks:
        lines.append(f"metrics: {ticks:.0f} ticks"
                     + (f", {violations:.0f} limit violations"
                        if violations is not None else ""))
        lines.append("")

    if report.spans:
        lines.append("spans (wall clock):")
        for path, s in sorted(report.spans.items()):
            lines.append(
                f"  {path:24} count {s['count']:>6}  "
                f"total {_fmt_seconds(s['total_s'])}  "
                f"mean {_fmt_seconds(s['mean_s'])}"
            )
        lines.append("")
    return "\n".join(lines)
