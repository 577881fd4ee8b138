"""Merge per-worker telemetry directories into their parent directory.

Parallel execution gives every worker process its own full
:class:`~repro.telemetry.exporters.TelemetryDirectory` under
``<root>/worker-NN/`` (concurrent writers cannot share one JSONL
handle).  :func:`merge_worker_directories` folds those back into the
top-level ``events.jsonl`` / ``events.f64`` / ``metrics.json`` /
``summary.txt`` so every downstream consumer --
``telemetry-report``, the report loaders, ad-hoc scripts -- reads a
parallel campaign exactly like a serial one.  The worker
subdirectories are left in place for per-worker debugging.

Merge semantics per artifact:

* events: concatenation, parent first then workers in directory
  order (cross-worker event interleaving is not reconstructed; per-cell
  ordering is preserved, which is what the aggregators key on);
* column files: concatenation in the same order, each ``ticks`` line's
  span offsets shifted by where its source's file starts;
* counters, histogram buckets, span counts/totals: summed;
* gauges: last writer wins (they are point-in-time values; the merged
  file is only meaningful for gauges every worker sets identically);
* histogram/span min/max: the extremes across workers.

The merge is tolerant of damaged pieces -- a worker killed mid-campaign
leaves a torn ``events.jsonl`` tail, a ``ticks`` line whose spans run
past its ``events.f64`` or no ``metrics.json`` at all.  Every such
artifact is skipped and counted on the returned :class:`MergeReport`
(``skipped_events``, ``missing_metrics``); the merge itself never
aborts on worker corruption.
"""

from __future__ import annotations

import fnmatch
import json
import os
from dataclasses import dataclass, field
from typing import Iterable, List, Mapping

from repro.ioutils import atomic_write_bytes, atomic_write_text
from repro.telemetry.exporters import (
    EVENTS_FILENAME,
    METRICS_FILENAME,
    SUMMARY_FILENAME,
    columns_path,
    read_column_bytes,
    shift_spans,
    spans_fit,
)

#: Subdirectory pattern the worker pool uses for worker sinks.
WORKER_DIR_PATTERN = "worker-*"


@dataclass
class MergeReport:
    """What one merge pass ingested (returned for logs and tests).

    The ``skipped_*`` / ``missing_metrics`` fields count corruption the
    merge tolerated: a worker SIGKILLed mid-write leaves a torn JSONL
    tail or no ``metrics.json`` at all.  Such
    damage is skipped and counted -- the merge never aborts on it, so
    one dead worker cannot take down the whole campaign's telemetry.
    """

    root: str
    worker_dirs: List[str] = field(default_factory=list)
    events: int = 0
    #: Malformed events.jsonl lines dropped (torn tails, partial writes,
    #: ``ticks`` lines whose spans run past their column file).
    skipped_events: int = 0
    #: Sources whose metrics.json was absent or unparseable.
    missing_metrics: int = 0

    @property
    def workers(self) -> int:
        """Number of worker directories merged."""
        return len(self.worker_dirs)

    @property
    def corrupt(self) -> bool:
        """Whether any source contributed damaged artifacts."""
        return bool(self.skipped_events or self.missing_metrics)


def _empty_snapshot() -> dict:
    return {
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        "spans": {},
    }


def _merge_histogram(into: dict, h: Mapping) -> None:
    if into.get("buckets") != list(h.get("buckets", [])):
        # Incompatible layouts (shouldn't happen between identical
        # workers); keep the first seen rather than corrupt the sums.
        return
    into["bucket_counts"] = [
        a + b for a, b in zip(into["bucket_counts"], h["bucket_counts"])
    ]
    into["count"] += h["count"]
    into["sum"] += h["sum"]
    into["mean"] = into["sum"] / into["count"] if into["count"] else 0.0
    for key, pick in (("min", min), ("max", max)):
        ours, theirs = into.get(key), h.get(key)
        if ours is None:
            into[key] = theirs
        elif theirs is not None:
            into[key] = pick(ours, theirs)


def merge_snapshots(snapshots: Iterable[Mapping]) -> dict:
    """Combine recorder snapshots (``{"metrics": ..., "spans": ...}``)."""
    merged = _empty_snapshot()
    counters = merged["metrics"]["counters"]
    gauges = merged["metrics"]["gauges"]
    histograms = merged["metrics"]["histograms"]
    spans = merged["spans"]
    for snap in snapshots:
        metrics = snap.get("metrics", {})
        for name, value in metrics.get("counters", {}).items():
            counters[name] = counters.get(name, 0.0) + value
        gauges.update(metrics.get("gauges", {}))
        for name, h in metrics.get("histograms", {}).items():
            if name in histograms:
                _merge_histogram(histograms[name], h)
            else:
                histograms[name] = json.loads(json.dumps(h))
        for path, s in snap.get("spans", {}).items():
            into = spans.get(path)
            if into is None:
                spans[path] = json.loads(json.dumps(s))
                continue
            into["count"] += s["count"]
            into["total_s"] += s["total_s"]
            into["mean_s"] = (
                into["total_s"] / into["count"] if into["count"] else 0.0
            )
            for key, pick in (("min_s", min), ("max_s", max)):
                ours, theirs = into.get(key), s.get(key)
                if ours is None:
                    into[key] = theirs
                elif theirs is not None:
                    into[key] = pick(ours, theirs)
    # Keep deterministic ordering, like the live registries do.
    merged["metrics"]["counters"] = dict(sorted(counters.items()))
    merged["metrics"]["gauges"] = dict(sorted(gauges.items()))
    merged["metrics"]["histograms"] = dict(sorted(histograms.items()))
    merged["spans"] = dict(sorted(spans.items()))
    return merged


def _render_merged_summary(snapshot: Mapping, report: MergeReport) -> str:
    """A ``summary.txt`` for the merged campaign (from snapshot data)."""
    metrics = snapshot.get("metrics", {})
    lines = [
        "merged run summary",
        "==================",
        "",
        f"worker directories merged: {report.workers}",
        f"events: {report.events}",
        "",
    ]
    if report.corrupt:
        lines[-1:] = [
            f"skipped (corrupt): {report.skipped_events} events, "
            f"{report.missing_metrics} metrics snapshots",
            "",
        ]
    counters = metrics.get("counters", {})
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
    spans = snapshot.get("spans", {})
    if spans:
        lines.append("spans (wall clock, summed across workers):")
        for path, s in spans.items():
            lines.append(
                f"  {path:32} count {s['count']:>6}  "
                f"total {s['total_s']:.3f} s"
            )
        lines.append("")
    return "\n".join(lines)


def _read_event_lines(
    path: str, size: int, base: int
) -> tuple[List[str], int]:
    """Valid JSONL lines plus the count of malformed ones dropped.

    A worker killed mid-``write`` leaves a torn final line (or raw
    garbage after a partial flush); every line must parse as a JSON
    object to be kept, so torn tails are skipped, not propagated into
    the merged log.  A ``ticks`` line must also have its spans inside
    the source's column file of ``size`` doubles; its offsets are
    shifted by ``base``, where that file starts in the merged one.
    """
    if not os.path.exists(path):
        return [], 0
    try:
        with open(path, errors="replace") as handle:
            raw = [line for line in handle.read().splitlines() if line]
    except OSError:
        return [], 1
    kept: List[str] = []
    skipped = 0
    for line in raw:
        try:
            event = json.loads(line)
            if not isinstance(event, dict):
                raise ValueError("not an event object")
        except ValueError:
            skipped += 1
            continue
        if event.get("kind") == "ticks":
            if not spans_fit(event, size):
                skipped += 1  # its columns never reached the disk
                continue
            if base:
                shift_spans(event, base)
                line = json.dumps(event)
        kept.append(line)
    return kept, skipped


def find_worker_directories(
    root: str | os.PathLike, pattern: str = WORKER_DIR_PATTERN
) -> List[str]:
    """Worker telemetry subdirectories under ``root``, sorted by name."""
    root = os.fspath(root)
    if not os.path.isdir(root):
        return []
    return sorted(
        os.path.join(root, entry)
        for entry in os.listdir(root)
        if fnmatch.fnmatch(entry, pattern)
        and os.path.isdir(os.path.join(root, entry))
    )


def merge_worker_directories(
    root: str | os.PathLike, pattern: str = WORKER_DIR_PATTERN
) -> MergeReport:
    """Fold every ``<root>/worker-NN/`` directory into ``<root>``'s files.

    The top-level files are rewritten as parent content + worker
    content, so run this exactly once per campaign (a second pass would
    double-count the workers); ``open_session`` calls it once, on
    session close.  No-op (empty report) when there are no worker
    directories.
    """
    root = os.fspath(root)
    report = MergeReport(root=root)
    report.worker_dirs = find_worker_directories(root, pattern)
    if not report.worker_dirs:
        return report

    sources = [root] + report.worker_dirs

    events: List[str] = []
    chunks: List[bytes] = []
    base = 0
    for source in sources:
        events_path = os.path.join(source, EVENTS_FILENAME)
        data = read_column_bytes(columns_path(events_path))
        size = len(data) // 8
        lines, skipped = _read_event_lines(events_path, size, base)
        events.extend(lines)
        report.skipped_events += skipped
        chunks.append(data)
        base += size
    # The columns land before the lines that point into them.
    atomic_write_bytes(
        columns_path(os.path.join(root, EVENTS_FILENAME)), b"".join(chunks)
    )
    atomic_write_text(
        os.path.join(root, EVENTS_FILENAME),
        ("\n".join(events) + "\n") if events else "",
    )
    report.events = len(events)

    snapshots: List[Mapping] = []
    for source in report.worker_dirs:
        # Workers only; the parent legitimately has no metrics.json
        # until the merge (or the session close) writes one.
        if not os.path.exists(os.path.join(source, METRICS_FILENAME)):
            report.missing_metrics += 1
    for source in sources:
        path = os.path.join(source, METRICS_FILENAME)
        if not os.path.exists(path):
            continue
        try:
            with open(path) as handle:
                snapshot = json.load(handle)
            if not isinstance(snapshot, dict):
                raise json.JSONDecodeError("not an object", "", 0)
            snapshots.append(snapshot)
        except (OSError, json.JSONDecodeError):
            # A killed worker may leave a torn file behind.
            if source != root:
                report.missing_metrics += 1
            continue
    merged = merge_snapshots(snapshots)
    atomic_write_text(
        os.path.join(root, METRICS_FILENAME),
        json.dumps(merged, indent=2) + "\n",
    )
    atomic_write_text(
        os.path.join(root, SUMMARY_FILENAME),
        _render_merged_summary(merged, report) + "\n",
    )
    return report
