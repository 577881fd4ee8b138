"""Aggregation of adaptation activity from an exported telemetry directory.

``repro-power adaptation-report <dir>`` digests the model-lifecycle
events a ``--telemetry`` run recorded -- drift confirmations,
recalibrations, rollbacks -- together with the residual metrics, so an
operator can audit *why* the governor's model changed and whether the
changes helped.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import List

from repro.errors import TelemetryError
from repro.telemetry.exporters import EVENTS_FILENAME, METRICS_FILENAME
from repro.telemetry.report import load_events


@dataclass
class AdaptationReport:
    """Parsed model-adaptation activity of one telemetry directory."""

    directory: str
    drift_detections: List[dict] = field(default_factory=list)
    recalibrations: List[dict] = field(default_factory=list)
    rollbacks: List[dict] = field(default_factory=list)
    residual_histogram: dict = field(default_factory=dict)
    skipped_lines: int = 0
    #: True when the final event line was torn mid-write (killed run).
    truncated_tail: bool = False

    @property
    def final_version(self) -> int | None:
        """The last activated model version, if any lifecycle event fired.

        Recalibrations and rollbacks interleave, so the two streams are
        merged in time order before taking the last activation.
        """
        activations = [
            (event.get("time_s", 0.0), event.get("version"))
            for event in self.recalibrations
        ] + [
            (event.get("time_s", 0.0), event.get("to_version"))
            for event in self.rollbacks
        ]
        activations = [(t, v) for t, v in activations if v is not None]
        if not activations:
            return None
        return max(activations, key=lambda tv: tv[0])[1]


def load_adaptation_report(
    directory: str | os.PathLike,
) -> AdaptationReport:
    """Aggregate the adaptation events of a ``--telemetry`` directory."""
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
    report = AdaptationReport(
        directory=directory, skipped_lines=skipped, truncated_tail=truncated
    )
    for event in events:
        kind = event.get("kind")
        if kind == "model_drift_detected":
            report.drift_detections.append(event)
        elif kind == "model_recalibrated":
            report.recalibrations.append(event)
        elif kind == "model_rolled_back":
            report.rollbacks.append(event)
    metrics_path = os.path.join(directory, METRICS_FILENAME)
    if os.path.exists(metrics_path):
        try:
            with open(metrics_path) as handle:
                metrics = json.load(handle)
        except (OSError, json.JSONDecodeError):
            metrics = {}
        if isinstance(metrics, dict):
            # metrics.json is the recorder snapshot: {"metrics": ..., "spans": ...}
            histograms = metrics.get("metrics", {}).get("histograms", {})
            if isinstance(histograms, dict):
                residual = histograms.get("adaptation.residual_w", {})
                if isinstance(residual, dict):
                    report.residual_histogram = residual
    return report


def render_adaptation_report(directory: str | os.PathLike) -> str:
    """Human-readable model-lifecycle digest of ``directory``."""
    report = load_adaptation_report(directory)
    lines = [f"adaptation report: {report.directory}", ""]

    if not (
        report.drift_detections
        or report.recalibrations
        or report.rollbacks
    ):
        lines.append(
            "no model-adaptation activity recorded (run with --adapt)"
        )
        return "\n".join(lines)

    lines.append(f"drift detections ({len(report.drift_detections)}):")
    for event in report.drift_detections:
        lines.append(
            f"  t={event.get('time_s', 0.0):8.3f}s  "
            f"{event.get('detector', '?'):18} "
            f"statistic {event.get('statistic', 0.0):.3f} "
            f"(threshold {event.get('threshold', 0.0):.3f})"
        )
    lines.append("")

    lines.append(f"recalibrations ({len(report.recalibrations)}):")
    for event in report.recalibrations:
        refit = event.get("refit_mhz", [])
        refit_text = ", ".join(f"{float(f):.0f}" for f in refit)
        lines.append(
            f"  t={event.get('time_s', 0.0):8.3f}s  "
            f"-> version {event.get('version', '?')} "
            f"(refit {refit_text} MHz; residual mean "
            f"{event.get('residual_mean_w', 0.0):+.2f} W, "
            f"std {event.get('residual_std_w', 0.0):.2f} W)"
        )
    if not report.recalibrations:
        lines.append("  (none)")
    lines.append("")

    if report.rollbacks:
        lines.append(f"rollbacks ({len(report.rollbacks)}):")
        for event in report.rollbacks:
            lines.append(
                f"  t={event.get('time_s', 0.0):8.3f}s  "
                f"version {event.get('from_version', '?')} -> "
                f"{event.get('to_version', '?')} "
                f"({event.get('reason', '?')})"
            )
        lines.append("")

    if report.final_version is not None:
        lines.append(f"final active model version: {report.final_version}")
    if report.residual_histogram:
        count = report.residual_histogram.get("count", 0)
        lines.append(f"residual samples observed: {count}")
    if report.skipped_lines:
        lines.append(f"skipped {report.skipped_lines} malformed event lines")
    if report.truncated_tail:
        lines.append("final event line torn mid-write (killed run); ignored")
    return "\n".join(lines)
