"""Telemetry merge: snapshot math and worker-directory folding."""

from __future__ import annotations

import json
from array import array

from repro.telemetry import (
    TICK_COLUMNS,
    TelemetryDirectory,
    TelemetryRecorder,
    TicksRecorded,
)
from repro.telemetry.exporters import (
    EVENTS_FILENAME,
    METRICS_FILENAME,
    SUMMARY_FILENAME,
)
from repro.telemetry.merge import (
    find_worker_directories,
    merge_snapshots,
    merge_worker_directories,
)
from repro.telemetry.report import load_events, render_report


def _snapshot(counters=None, gauges=None, histograms=None, spans=None):
    return {
        "metrics": {
            "counters": counters or {},
            "gauges": gauges or {},
            "histograms": histograms or {},
        },
        "spans": spans or {},
    }


def test_counters_sum_and_gauges_last_win():
    merged = merge_snapshots([
        _snapshot(counters={"ticks": 10.0}, gauges={"power_w": 11.0}),
        _snapshot(counters={"ticks": 5.0, "faults": 1.0},
                  gauges={"power_w": 12.5}),
    ])
    assert merged["metrics"]["counters"] == {"faults": 1.0, "ticks": 15.0}
    assert merged["metrics"]["gauges"] == {"power_w": 12.5}


def test_histograms_sum_compatible_buckets():
    h1 = {"buckets": [1.0, 2.0], "bucket_counts": [3, 1, 0],
          "count": 4, "sum": 4.0, "mean": 1.0, "min": 0.5, "max": 1.9}
    h2 = {"buckets": [1.0, 2.0], "bucket_counts": [1, 0, 1],
          "count": 2, "sum": 4.0, "mean": 2.0, "min": 0.1, "max": 3.0}
    merged = merge_snapshots([
        _snapshot(histograms={"latency": h1}),
        _snapshot(histograms={"latency": h2}),
    ])["metrics"]["histograms"]["latency"]
    assert merged["bucket_counts"] == [4, 1, 1]
    assert merged["count"] == 6
    assert merged["mean"] == 8.0 / 6
    assert merged["min"] == 0.1
    assert merged["max"] == 3.0


def test_incompatible_histogram_layouts_keep_first():
    h1 = {"buckets": [1.0], "bucket_counts": [1, 0],
          "count": 1, "sum": 0.5, "mean": 0.5}
    h2 = {"buckets": [9.0], "bucket_counts": [0, 1],
          "count": 1, "sum": 10.0, "mean": 10.0}
    merged = merge_snapshots([
        _snapshot(histograms={"latency": h1}),
        _snapshot(histograms={"latency": h2}),
    ])["metrics"]["histograms"]["latency"]
    assert merged["count"] == 1
    assert merged["buckets"] == [1.0]


def test_spans_combine():
    s1 = {"count": 2, "total_s": 2.0, "mean_s": 1.0,
          "min_s": 0.5, "max_s": 1.5}
    s2 = {"count": 1, "total_s": 4.0, "mean_s": 4.0,
          "min_s": 4.0, "max_s": 4.0}
    merged = merge_snapshots([
        _snapshot(spans={"run": s1}), _snapshot(spans={"run": s2}),
    ])["spans"]["run"]
    assert merged["count"] == 3
    assert merged["total_s"] == 6.0
    assert merged["mean_s"] == 2.0
    assert merged["min_s"] == 0.5
    assert merged["max_s"] == 4.0


def _write_worker(path, events, snapshot):
    path.mkdir(parents=True)
    (path / EVENTS_FILENAME).write_text(
        "".join(json.dumps(e) + "\n" for e in events)
    )
    if snapshot is not None:
        (path / METRICS_FILENAME).write_text(json.dumps(snapshot))


def test_merge_worker_directories(tmp_path):
    _write_worker(
        tmp_path / "worker-00",
        [{"event": "a"}],
        _snapshot(counters={"ticks": 2.0}),
    )
    _write_worker(
        tmp_path / "worker-01",
        [{"event": "b"}, {"event": "c"}],
        _snapshot(counters={"ticks": 3.0}),
    )
    # A parent with its own (pre-merge) serial content.
    (tmp_path / EVENTS_FILENAME).write_text(
        json.dumps({"event": "parent"}) + "\n"
    )
    (tmp_path / METRICS_FILENAME).write_text(
        json.dumps(_snapshot(counters={"ticks": 1.0}))
    )

    report = merge_worker_directories(tmp_path)
    assert report.workers == 2
    assert report.events == 4
    assert report.corrupt is False

    events = (tmp_path / EVENTS_FILENAME).read_text().splitlines()
    assert [json.loads(e)["event"] for e in events] == [
        "parent", "a", "b", "c",
    ]
    assert not (tmp_path / "trace.csv").exists()
    merged = json.loads((tmp_path / METRICS_FILENAME).read_text())
    assert merged["metrics"]["counters"]["ticks"] == 6.0
    summary = (tmp_path / SUMMARY_FILENAME).read_text()
    assert "worker directories merged: 2" in summary
    # Worker directories are kept for per-worker debugging.
    assert (tmp_path / "worker-00" / EVENTS_FILENAME).exists()


def test_merge_tolerates_torn_metrics(tmp_path):
    _write_worker(
        tmp_path / "worker-00", [], _snapshot(counters={"ticks": 1.0})
    )
    killed = tmp_path / "worker-01"
    killed.mkdir()
    (killed / METRICS_FILENAME).write_text('{"metrics": {"coun')  # torn
    report = merge_worker_directories(tmp_path)
    assert report.workers == 2
    merged = json.loads((tmp_path / METRICS_FILENAME).read_text())
    assert merged["metrics"]["counters"]["ticks"] == 1.0
    assert report.missing_metrics == 1
    assert report.corrupt is True


def test_merge_skips_and_counts_corrupt_worker_content(tmp_path):
    _write_worker(
        tmp_path / "worker-00",
        [{"event": "good"}],
        _snapshot(counters={"ticks": 2.0}),
    )
    # worker-01 was SIGKILLed mid-write: a torn events tail, a
    # non-object line, and no metrics.json.
    killed = tmp_path / "worker-01"
    killed.mkdir()
    (killed / EVENTS_FILENAME).write_text(
        json.dumps({"event": "ok"}) + "\n"
        + "[1, 2, 3]\n"
        + '{"event": "torn'
    )

    report = merge_worker_directories(tmp_path)
    assert report.workers == 2
    assert report.events == 2
    assert report.skipped_events == 2
    assert report.missing_metrics == 1
    assert report.corrupt is True

    events = (tmp_path / EVENTS_FILENAME).read_text().splitlines()
    assert [json.loads(e)["event"] for e in events] == ["good", "ok"]
    merged = json.loads((tmp_path / METRICS_FILENAME).read_text())
    assert merged["metrics"]["counters"]["ticks"] == 2.0
    summary = (tmp_path / SUMMARY_FILENAME).read_text()
    assert (
        "skipped (corrupt): 2 events, 1 metrics snapshots"
        in summary
    )


def test_parent_without_metrics_is_not_corruption(tmp_path):
    # The parent legitimately has no metrics.json before the merge;
    # only worker directories count toward missing_metrics.
    _write_worker(
        tmp_path / "worker-00", [], _snapshot(counters={"ticks": 1.0})
    )
    report = merge_worker_directories(tmp_path)
    assert report.missing_metrics == 0
    assert report.corrupt is False


def test_no_worker_directories_is_a_noop(tmp_path):
    (tmp_path / EVENTS_FILENAME).write_text('{"event": "solo"}\n')
    report = merge_worker_directories(tmp_path)
    assert report.workers == 0
    assert (tmp_path / EVENTS_FILENAME).read_text() == '{"event": "solo"}\n'
    assert not (tmp_path / SUMMARY_FILENAME).exists()


def test_find_worker_directories_sorted(tmp_path):
    for name in ("worker-01", "worker-00", "worker-00.1", "not-a-worker"):
        (tmp_path / name).mkdir()
    found = [p.rsplit("/", 1)[-1] for p in find_worker_directories(tmp_path)]
    assert found == ["worker-00", "worker-00.1", "worker-01"]


def _observed_worker(path, runs):
    """A worker bundle of one ``ticks`` record per entry of ``runs``
    (each a list of measured watts, one per 10 ms tick)."""
    recorder = TelemetryRecorder()
    sink = TelemetryDirectory(path)
    sink.attach(recorder)
    for index, measured in enumerate(runs):
        n = len(measured)
        columns = {
            name: array("d", [0.01] * n) for name in TICK_COLUMNS
        }
        columns["measured_power_w"] = array("d", measured)
        columns["frequency_mhz"] = array("d", [1800.0] * n)
        recorder.emit(TicksRecorded(
            time_s=0.01 * n, workload=f"{path.name}-{index}", governor="PM",
            columns=columns,
            rates={"INST_DECODED": array("d", [0.5 * i for i in range(n)])},
        ))
    sink.finalize(recorder)


def test_merge_rebases_spans_and_drops_ticks_past_a_torn_column_file(
    tmp_path,
):
    _observed_worker(tmp_path / "worker-00", [[10.0, 11.0, 12.0]])
    _observed_worker(tmp_path / "worker-01", [[13.0, 14.0], [15.0, 16.0]])
    # worker-01 was killed before its last run's columns reached the
    # disk: the column file stops inside that run's rate column.
    torn = tmp_path / "worker-01" / "events.f64"
    torn.write_bytes(torn.read_bytes()[:-12])

    report = merge_worker_directories(tmp_path)
    assert report.workers == 2
    assert report.events == 2
    assert report.skipped_events == 1
    assert report.corrupt is True

    events, skipped, truncated = load_events(tmp_path / EVENTS_FILENAME)
    assert (skipped, truncated) == (0, False)
    assert [e["workload"] for e in events] == ["worker-00-0", "worker-01-0"]
    assert [e["columns"]["measured_power_w"] for e in events] == [
        [10.0, 11.0, 12.0], [13.0, 14.0],
    ]
    assert [e["rates"]["INST_DECODED"] for e in events] == [
        [0.0, 0.5, 1.0], [0.0, 0.5],
    ]
    text = render_report(tmp_path)
    assert "p-state residency (5 ticks in 2 runs):" in text
