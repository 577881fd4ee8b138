"""Aggregation of fault activity from an exported telemetry directory.

``repro-power faults-report <dir>`` reconciles what the injector fired
(``fault_injected`` events) against what the hardened consumers absorbed
(``fault_recovered``, ``watchdog`` and ``degraded`` events) and renders
an injected-vs-recovered digest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Mapping

from repro.errors import TelemetryError
from repro.telemetry.exporters import EVENTS_FILENAME
from repro.telemetry.report import load_events


@dataclass
class FaultsReport:
    """Parsed fault/recovery activity of one telemetry directory."""

    directory: str
    injected: Mapping[str, int] = field(default_factory=dict)
    recovered: Mapping[str, int] = field(default_factory=dict)
    watchdog_trips: int = 0
    degradations: List[dict] = field(default_factory=list)
    skipped_lines: int = 0
    #: True when the final event line was torn mid-write (killed run).
    truncated_tail: bool = False

    @property
    def total_injected(self) -> int:
        """Total injected faults across subsystems."""
        return sum(self.injected.values())

    @property
    def total_recovered(self) -> int:
        """Total recovery actions taken by hardened consumers."""
        return sum(self.recovered.values())


def load_faults_report(directory: str | os.PathLike) -> FaultsReport:
    """Aggregate the fault events of a ``--telemetry`` directory."""
    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        raise TelemetryError(f"no such telemetry directory: {directory}")
    events_path = os.path.join(directory, EVENTS_FILENAME)
    if not os.path.exists(events_path):
        raise TelemetryError(
            f"{directory} has no {EVENTS_FILENAME}; was it written with "
            "--telemetry?"
        )
    events, skipped, truncated = load_events(events_path)
    report = FaultsReport(
        directory=directory, skipped_lines=skipped, truncated_tail=truncated
    )
    injected: dict[str, int] = {}
    recovered: dict[str, int] = {}
    for event in events:
        kind = event.get("kind")
        if kind == "fault_injected":
            key = f"{event.get('subsystem', '?')}.{event.get('fault', '?')}"
            injected[key] = injected.get(key, 0) + 1
        elif kind == "fault_recovered":
            key = f"{event.get('subsystem', '?')}.{event.get('action', '?')}"
            recovered[key] = recovered.get(key, 0) + 1
        elif kind == "watchdog":
            report.watchdog_trips += 1
        elif kind == "degraded":
            report.degradations.append(event)
    report.injected = injected
    report.recovered = recovered
    return report


def render_faults_report(directory: str | os.PathLike) -> str:
    """Human-readable injected-vs-recovered digest of ``directory``."""
    report = load_faults_report(directory)
    lines = [f"faults report: {report.directory}", ""]

    if not report.total_injected and not report.total_recovered:
        lines.append("no fault activity recorded (run with --faults SPEC)")
        return "\n".join(lines)

    lines.append(f"injected ({report.total_injected} total):")
    for key, count in sorted(report.injected.items()):
        lines.append(f"  {key:28} {count}")
    if not report.injected:
        lines.append("  (none)")
    lines.append("")

    lines.append(f"recovered ({report.total_recovered} total):")
    for key, count in sorted(report.recovered.items()):
        lines.append(f"  {key:28} {count}")
    if not report.recovered:
        lines.append("  (none)")
    lines.append("")

    if report.watchdog_trips:
        lines.append(f"watchdog trips: {report.watchdog_trips}")
    for degraded in report.degradations:
        lines.append(
            f"degraded at {degraded.get('time_s', 0.0):.3f} s -> "
            f"{degraded.get('safe_frequency_mhz', 0.0):.0f} MHz "
            f"({degraded.get('reason', '?')})"
        )
    if report.skipped_lines:
        lines.append(f"skipped {report.skipped_lines} malformed event lines")
    if report.truncated_tail:
        lines.append("final event line torn mid-write (killed run); ignored")
    return "\n".join(lines)
