"""Acceptance test: a full CLI run with --telemetry exports a coherent,
cross-validated observability bundle.

Validates the ISSUE's acceptance criteria end to end:

* ``repro-power run <workload> --governor pm --telemetry <dir>``
  produces a JSONL event log, a CSV tick trace and a metrics summary;
* event ordering is coherent (run_started first, run_finished last,
  monotone timestamps, one columnar ``ticks`` record for the run);
* p-state residency metrics sum to the run duration;
* histogram counts match the tick count.
"""

import csv
import json

import pytest

from repro.cli import main
from repro.telemetry.report import load_events


@pytest.fixture(scope="module")
def telemetry_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("telemetry") / "run"
    code = main(
        ["run", "ammp", "--governor", "pm", "--limit", "14.5",
         "--scale", "0.05", "--use-paper-model",
         "--telemetry", str(directory)]
    )
    assert code == 0
    return directory


@pytest.fixture(scope="module")
def events(telemetry_dir):
    events, _, _ = load_events(telemetry_dir / "events.jsonl")
    return events


@pytest.fixture(scope="module")
def columns(events):
    (record,) = [e for e in events if e["kind"] == "ticks"]
    return record["columns"]


@pytest.fixture(scope="module")
def trace_rows(telemetry_dir):
    with open(telemetry_dir / "trace.csv", newline="") as handle:
        return list(csv.DictReader(handle))


@pytest.fixture(scope="module")
def metrics(telemetry_dir):
    with open(telemetry_dir / "metrics.json") as handle:
        return json.load(handle)


def test_bundle_files_exist(telemetry_dir):
    for name in ("events.jsonl", "trace.csv", "metrics.json", "summary.txt"):
        assert (telemetry_dir / name).exists(), name


def test_event_ordering(events):
    kinds = [e["kind"] for e in events]
    assert kinds[0] == "run_started"
    assert kinds[-1] == "run_finished"
    times = [e["time_s"] for e in events]
    assert times == sorted(times)
    # One record per run carries every tick, as equal-length columns.
    assert kinds.count("ticks") == 1
    assert not {"sample", "decision", "tick"} & set(kinds)
    (record,) = [e for e in events if e["kind"] == "ticks"]
    lengths = {len(values) for values in record["columns"].values()}
    lengths |= {len(values) for values in record["rates"].values()}
    (ticks,) = lengths
    assert ticks > 0
    assert record["columns"]["time_s"][-1] == record["time_s"]


def test_trace_matches_event_stream(columns, trace_rows):
    assert len(trace_rows) == len(columns["time_s"])
    for row, time_s, watts in zip(
        trace_rows, columns["time_s"], columns["measured_power_w"]
    ):
        assert float(row["time_s"]) == pytest.approx(time_s, abs=1e-4)
        assert float(row["measured_power_w"]) == pytest.approx(
            watts, abs=1e-3
        )


def test_residency_sums_to_run_duration(events, metrics):
    finished = [e for e in events if e["kind"] == "run_finished"][0]
    counters = metrics["metrics"]["counters"]
    residency = sum(
        v for k, v in counters.items() if k.startswith("pstate.residency_s.")
    )
    assert residency == pytest.approx(finished["duration_s"], rel=1e-9)


def test_histogram_counts_match_tick_count(columns, metrics):
    ticks = columns["time_s"]
    histograms = metrics["metrics"]["histograms"]
    assert histograms["power.measured_w"]["count"] == len(ticks)
    assert sum(histograms["power.measured_w"]["bucket_counts"]) == len(ticks)
    # The first tick has no prior projection to score.
    assert histograms["projection.error_w"]["count"] == len(ticks) - 1
    assert metrics["metrics"]["counters"]["controller.ticks"] == len(ticks)


def test_spans_cover_the_control_loop(events, metrics):
    # The CLI routes through the execution engine, whose root ``run``
    # span times the whole control loop once per cell; there are no
    # per-tick spans.
    spans = metrics["spans"]
    cells = sum(1 for e in events if e["kind"] == "run_started")
    assert cells == 1
    assert list(spans) == ["run"]
    assert spans["run"]["count"] == cells
    assert spans["run"]["total_s"] > 0


def test_summary_is_human_readable(telemetry_dir):
    text = (telemetry_dir / "summary.txt").read_text()
    assert "p-state residency" in text
    assert "spans (wall clock)" in text


def test_telemetry_report_subcommand(telemetry_dir, capsys):
    assert main(["telemetry-report", str(telemetry_dir)]) == 0
    out = capsys.readouterr().out
    assert "ammp under PerformanceMaximizer" in out
    assert "ticks" in out
    assert "p-state residency" in out
    assert "Eq. 2 residuals" in out


def test_telemetry_report_missing_directory_fails(tmp_path, capsys):
    code = main(["telemetry-report", str(tmp_path / "missing")])
    assert code == 1
    assert "error:" in capsys.readouterr().err
