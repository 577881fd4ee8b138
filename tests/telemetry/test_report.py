"""Tests for the telemetry-directory aggregation report."""

import dataclasses
import json
from array import array

import pytest

from repro.adaptation import AdaptationConfig
from repro.errors import TelemetryError
from repro.exec import (
    ExperimentConfig,
    GovernorSpec,
    RunCell,
    RunPlan,
    open_session,
)
from repro.faults import FaultPlan
from repro.telemetry import (
    TICK_COLUMNS,
    JsonlEventExporter,
    TelemetryDirectory,
    TelemetryRecorder,
    TicksRecorded,
    load_report,
    render_report,
)
from repro.telemetry.bus import PStateTransition, RunFinished, RunStarted
from repro.telemetry.report import load_events

_NAN = float("nan")


def _record(measured, limit=None, estimate=None, freq=None, workload="ammp"):
    """A ``ticks`` record of 10 ms ticks; None entries are "no value"."""
    n = len(measured)

    def column(values):
        return array("d", [_NAN if v is None else v for v in values])

    columns = {name: column([0.0] * n) for name in TICK_COLUMNS}
    columns.update(
        time_s=column([0.01 * (i + 1) for i in range(n)]),
        frequency_mhz=column(freq or [1800.0] * n),
        measured_power_w=column(measured),
        true_power_w=column(measured),
        instructions=column([2e7] * n),
        duty=column([1.0] * n),
        temperature_c=column([None] * n),
        interval_s=column([0.01] * n),
        estimate_w=column(estimate or [None] * n),
        limit_w=column(limit or [None] * n),
    )
    return TicksRecorded(
        time_s=0.01 * n, workload=workload, governor="PM", columns=columns,
        rates={},
    )


def _write_directory(path):
    recorder = TelemetryRecorder()
    sink = TelemetryDirectory(path)
    sink.attach(recorder)
    recorder.emit(RunStarted(time_s=0.0, workload="ammp", governor="PM"))
    recorder.metrics.counter("controller.ticks").inc(3)
    recorder.emit(_record(
        measured=[14.0, 15.0, 16.0],
        limit=[14.5] * 3,
        estimate=[14.5, 15.5, 16.25],
        freq=[1800.0, 1800.0, 1600.0],
    ))
    recorder.emit(
        PStateTransition(time_s=0.02, from_mhz=1800.0, to_mhz=1600.0)
    )
    recorder.emit(
        RunFinished(
            time_s=0.03, workload="ammp", governor="PM", duration_s=0.03,
            instructions=6e7, measured_energy_j=0.42, transitions=2,
        )
    )
    sink.finalize(recorder)
    return recorder


class TestLoadReport:
    def test_aggregates_all_views(self, tmp_path):
        _write_directory(tmp_path / "t")
        report = load_report(tmp_path / "t")
        assert report.event_counts["ticks"] == 1
        assert report.tick_count == 3
        assert report.mean_measured_power_w == pytest.approx(15.0)
        assert len(report.runs) == 1
        assert report.metrics["counters"]["controller.ticks"] == 3
        assert report.residency_s == {1800.0: 0.02, 1600.0: 0.01}
        # Estimate at tick t minus what tick t + 1 metered.
        assert report.eq2_residuals_w == [-0.5, -0.5]
        assert report.violation_windows == [2]

    def test_violation_windows_split_on_gaps_and_runs(self, tmp_path):
        d = tmp_path / "windows"
        d.mkdir()
        with JsonlEventExporter(d / "events.jsonl") as exporter:
            exporter(_record([15.0, 13.0, 15.0, 15.0], limit=[14.0] * 4))
            exporter(_record([15.0, 15.0], limit=[14.0, 14.0]))
            exporter(_record([99.0]))  # no limit: never a violation
        report = load_report(d)
        assert report.violation_windows == [1, 2, 2]
        assert report.eq2_residuals_w == []
        text = render_report(d)
        assert "3 windows above the limit, longest 2 ticks" in text
        assert "Eq. 2 residuals: none" in text

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(TelemetryError):
            load_report(tmp_path / "nope")

    def test_directory_without_events_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(TelemetryError, match="events.jsonl"):
            load_report(tmp_path / "empty")

    def test_malformed_event_lines_skipped_and_counted(self, tmp_path):
        # A journal from a crashed run is routinely truncated mid-line;
        # damage is skipped and counted, never fatal to the report.
        d = tmp_path / "bad"
        d.mkdir()
        (d / "events.jsonl").write_text(
            '{"kind": "ticks"}\n'
            "not json\n"
            '{"kind": "ticks", "time_s": 0.0\n'  # truncated mid-object
            '["not", "an", "object"]\n'
            '{"kind": "transition"}\n'
        )
        report = load_report(d)
        assert report.skipped_lines == 3
        assert report.event_counts == {"ticks": 1, "transition": 1}

    def test_torn_final_line_is_truncated_tail_not_damage(self, tmp_path):
        # The signature of a SIGKILLed run: the last line is a partial
        # JSON object with no trailing newline.  That is expected, not
        # interior corruption, so it must not count as a skipped line.
        d = tmp_path / "killed"
        d.mkdir()
        (d / "events.jsonl").write_text(
            '{"kind": "ticks"}\n'
            '{"kind": "ticks"}\n'
            '{"kind": "ticks", "time_s": 0.0'  # torn mid-write, no \n
        )
        report = load_report(d)
        assert report.truncated_tail is True
        assert report.skipped_lines == 0
        assert report.event_counts == {"ticks": 2}
        assert "torn mid-write" in render_report(d)

    def test_torn_final_ticks_record_is_truncated_tail(self, tmp_path):
        # A run killed while its one ticks line was being written: the
        # line is cut inside the columns.  load_events reports the tear
        # as a truncated tail and keeps every complete line before it.
        d = tmp_path / "torn-ticks"
        d.mkdir()
        path = d / "events.jsonl"
        with JsonlEventExporter(path) as exporter:
            exporter(RunStarted(time_s=0.0, workload="ammp", governor="PM"))
            exporter(_record([14.0 + 0.001 * i for i in range(500)]))
        data = path.read_bytes()
        last = data.rindex(b"\n", 0, len(data) - 1) + 1
        path.write_bytes(data[: last + (len(data) - last) // 2])
        events, skipped, truncated = load_events(path)
        assert truncated is True
        assert skipped == 0
        assert [e["kind"] for e in events] == ["run_started"]
        text = render_report(d)
        assert "torn mid-write" in text
        assert "p-state residency" not in text

    def test_interior_damage_still_counts_as_skipped(self, tmp_path):
        # Same partial-object text, but followed by valid lines: that is
        # real corruption, not a kill signature.
        d = tmp_path / "corrupt"
        d.mkdir()
        (d / "events.jsonl").write_text(
            '{"kind": "ticks"}\n'
            '{"kind": "ticks", "time_s": 0.0\n'
            '{"kind": "ticks"}\n'
        )
        report = load_report(d)
        assert report.truncated_tail is False
        assert report.skipped_lines == 1
        assert report.event_counts == {"ticks": 2}

    def test_torn_final_trace_row_is_dropped(self, tmp_path):
        # The trace statistics come from the ticks records: a final
        # ticks line cut off mid-write must be dropped instead of
        # poisoning the power aggregates.
        d = tmp_path / "torntrace"
        d.mkdir()
        with JsonlEventExporter(d / "events.jsonl") as exporter:
            exporter(_record([14.0, 15.0]))
            exporter(_record([16.0]))
        path = d / "events.jsonl"
        text = path.read_text()
        path.write_text(text[: text.rindex('"columns"')])  # torn mid-line
        report = load_report(d)
        assert report.truncated_tail is True
        assert report.tick_count == 2
        assert report.mean_measured_power_w == pytest.approx(14.5)

    def test_corrupt_metrics_snapshot_degrades(self, tmp_path):
        d = tmp_path / "halfmetrics"
        d.mkdir()
        (d / "events.jsonl").write_text('{"kind": "ticks"}\n')
        (d / "metrics.json").write_text('{"metrics": {"counters":')
        report = load_report(d)
        assert report.metrics == {}
        assert report.spans == {}


class TestFaultsAndAdaptation:
    """The report's faults and adaptation sections."""

    def _write_log(self, d, events):
        d.mkdir()
        (d / "events.jsonl").write_text(
            "".join(json.dumps(event) + "\n" for event in events)
        )

    def test_faults_section_counts_by_subsystem(self, tmp_path):
        d = tmp_path / "faults"
        self._write_log(d, [
            {"kind": "fault_injected", "time_s": 0.1,
             "subsystem": "sampler", "fault": "drop"},
            {"kind": "fault_injected", "time_s": 0.2,
             "subsystem": "sampler", "fault": "drop"},
            {"kind": "fault_recovered", "time_s": 0.2,
             "subsystem": "sampler", "action": "holdover"},
            {"kind": "watchdog", "time_s": 0.3, "consecutive_faults": 5},
            {"kind": "degraded", "time_s": 0.3, "reason": "watchdog",
             "safe_frequency_mhz": 600.0},
        ])
        text = render_report(d)
        assert "  injected (2 total):\n    sampler.drop" in text
        assert "  recovered (1 total):\n    sampler.holdover" in text
        assert "  watchdog trips: 1" in text
        assert "  degraded at 0.300 s -> 600 MHz (watchdog)" in text
        assert "model adaptation:" not in text

    def test_sections_list_events_independent_of_log_order(self, tmp_path):
        events = [
            {"kind": "run_started", "time_s": 0.0},
            {"kind": "degraded", "time_s": 0.5, "reason": "b",
             "safe_frequency_mhz": 600.0},
            {"kind": "degraded", "time_s": 0.5, "reason": "a",
             "safe_frequency_mhz": 600.0},
            {"kind": "model_recalibrated", "time_s": 0.2, "version": 2},
            {"kind": "model_rolled_back", "time_s": 0.4,
             "from_version": 2, "to_version": 1, "reason": "probation"},
            {"kind": "model_drift_detected", "time_s": 0.1,
             "detector": "page_hinkley", "statistic": 9.0,
             "threshold": 8.0},
        ]
        self._write_log(tmp_path / "forward", events)
        self._write_log(tmp_path / "backward", events[::-1])
        text = _body(render_report(tmp_path / "forward"))
        assert text == _body(render_report(tmp_path / "backward"))
        assert text.index("(a)") < text.index("(b)")
        assert "  rollbacks (1):\n    t=   0.400s  version 2 -> 1" in text
        assert "final active model version: 1" in text

    def test_final_model_version_needs_a_single_run(self, tmp_path):
        d = tmp_path / "two-runs"
        self._write_log(d, [
            {"kind": "run_started", "time_s": 0.0},
            {"kind": "model_recalibrated", "time_s": 0.2, "version": 2},
            {"kind": "run_started", "time_s": 0.0},
        ])
        text = render_report(d)
        assert "-> version 2" in text
        assert "final active model version" not in text

    def test_residual_samples_come_from_the_metrics(self, tmp_path):
        d = tmp_path / "residuals"
        self._write_log(d, [
            {"kind": "model_drift_detected", "time_s": 0.1,
             "detector": "page_hinkley", "statistic": 9.0,
             "threshold": 8.0},
        ])
        (d / "metrics.json").write_text(json.dumps({"metrics": {
            "histograms": {"adaptation.residual_w": {"count": 42}},
        }}))
        text = render_report(d)
        assert "  recalibrations (0):\n    (none)" in text
        assert "residual samples observed: 42" in text


def test_adaptation_section_tolerates_torn_tail(tmp_path):
    d = tmp_path / "killed"
    d.mkdir()
    (d / "events.jsonl").write_text(
        '{"kind": "model_recalibrated", "time_s": 0.1, "version": 2}\n'
        '{"kind": "model_drift_detected", "time_s": 0.2'  # torn, no \n
    )
    report = load_report(d)
    assert report.truncated_tail is True
    assert report.skipped_lines == 0
    assert len(report.of_kind("model_recalibrated")) == 1
    assert report.of_kind("model_drift_detected") == []
    text = render_report(d)
    assert "torn mid-write" in text
    assert "drift detections (0):" in text


def test_faults_section_tolerates_torn_tail(tmp_path):
    d = tmp_path / "killed"
    d.mkdir()
    (d / "events.jsonl").write_text(
        '{"kind": "fault_injected", "subsystem": "meter", '
        '"fault": "spike", "time_s": 0.1}\n'
        '{"kind": "fault_injected", "subsys'  # torn, no \n
    )
    report = load_report(d)
    assert report.truncated_tail is True
    assert report.skipped_lines == 0
    assert report.fault_counts("fault_injected", "fault") == {
        "meter.spike": 1
    }
    text = render_report(d)
    assert "torn mid-write" in text
    assert "injected (1 total):" in text


class TestRenderReport:
    def test_renders_runs_events_and_spans(self, tmp_path):
        _write_directory(tmp_path / "t")
        text = render_report(tmp_path / "t")
        assert "ammp under PM" in text
        assert "3 ticks" in text
        assert "  transition       1" in text
        assert "p-state residency (3 ticks in 1 runs):" in text
        assert " 1600 MHz     0.010 s  (33.3%)" in text
        assert "count 2  mean -0.500 W  min -0.500 W  max -0.500 W" in text
        assert "1 windows above the limit, longest 2 ticks" in text

    def test_trace_line_reads_the_tick_columns(self, tmp_path):
        _write_directory(tmp_path / "t")
        assert not (tmp_path / "t" / "trace.csv").exists()
        text = render_report(tmp_path / "t")
        assert "trace: 3 ticks, mean measured power 15.00 W" in text

    def test_trace_mean_rounds_readings_to_the_milliwatt(self, tmp_path):
        # Each reading counts as the trace CSV prints it (12.605 W),
        # which moves this mean's second decimal.
        d = tmp_path / "rounding"
        d.mkdir()
        with JsonlEventExporter(d / "events.jsonl") as exporter:
            exporter(_record([12.60492]))
        assert "mean measured power 12.61 W" in render_report(d)

    def test_tolerates_partial_directories(self, tmp_path):
        # Only an event log: metrics are optional.
        d = tmp_path / "partial"
        d.mkdir()
        (d / "events.jsonl").write_text(
            json.dumps({"kind": "run_started", "time_s": 0.0,
                        "workload": "gzip", "governor": "PM"}) + "\n"
        )
        text = render_report(d)
        assert "run_started" in text


def _body(text):
    """The report minus its header line (the directory) and its
    wall-clock spans section."""
    return text.split("\n", 1)[1].split("spans (wall clock):")[0]


def _event_multiset(directory):
    events, skipped, truncated = load_events(directory / "events.jsonl")
    assert (skipped, truncated) == (0, False)
    return sorted(json.dumps(e, sort_keys=True) for e in events)


def test_serial_and_parallel_bundles_report_identically(tmp_path):
    """A small sweep, a faulted cell and an adaptive cell observed
    serially and through two pool workers write the same ticks records
    and rare events (as multisets: the merge concatenates per worker)
    and the same report."""
    sweep = RunPlan.sweep(
        ["ammp", "gzip", "mcf"],
        [GovernorSpec.pm(14.5, power_model="paper"), GovernorSpec.ps(0.8)],
        ExperimentConfig(scale=0.05, seed=3),
    )
    faulted = RunCell(
        workload="gzip",
        governor=GovernorSpec.pm(14.5, power_model="paper"),
        fault_plan=FaultPlan.from_dict({
            "seed": 0, "sample": {"drop_prob": 0.08},
            "transition": {"fail_prob": 0.6},
        }),
    )
    adaptive = RunCell(  # the CLI's drift drill: 32x FMA-256KB
        workload="FMA-256KB",
        governor=GovernorSpec.pm(13.5, power_model="paper"),
        fault_plan=FaultPlan.from_dict({
            "seed": 0, "meter": {
                "drift_rate_per_s": 0.04, "drift_start_s": 1.0,
                "drift_max_gain": 0.35,
            },
        }),
        adaptation=AdaptationConfig(),
    )
    plans = (
        dataclasses.replace(sweep, cells=sweep.cells + (faulted,)),
        RunPlan(ExperimentConfig(scale=32, seed=3), (adaptive,)),
    )
    for workers, name in ((0, "serial"), (2, "parallel")):
        with open_session(
            workers=workers, telemetry_dir=tmp_path / name
        ) as session:
            for plan in plans:
                session.run_plan(plan)
    serial = _event_multiset(tmp_path / "serial")
    assert sum('"kind": "ticks"' in e for e in serial) == sum(map(len, plans))
    assert serial == _event_multiset(tmp_path / "parallel")
    text = _body(render_report(tmp_path / "serial"))
    assert "p-state residency" in text
    assert "Eq. 2 residuals (" in text
    assert "faults (injected vs recovered):" in text
    assert "model adaptation:" in text
    assert "recalibrations (0)" not in text
    assert text == _body(render_report(tmp_path / "parallel"))
