"""Tests for JSONL/CSV/summary exporters and the directory bundle."""

import csv
import dataclasses
import io
import json
import math
from types import MappingProxyType
from typing import Mapping

import pytest

from repro.telemetry import (
    CsvTraceExporter,
    JsonlEventExporter,
    NullRecorder,
    TelemetryDirectory,
    TelemetryRecorder,
    TickCompleted,
    TRACE_FIELDS,
    render_run_summary,
    write_trace_csv,
)
from repro.errors import TelemetryError
from repro.exec.session import current_session, open_session
from repro.telemetry.bus import DecisionMade, TelemetryEvent


def _tick(time_s=0.01, temperature_c=55.5):
    return TickCompleted(
        time_s=time_s, frequency_mhz=1800.0, measured_power_w=14.2,
        true_power_w=14.0, instructions=2.4e7, duty=1.0,
        temperature_c=temperature_c,
    )


class TestJsonlExporter:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlEventExporter(path) as exporter:
            exporter(_tick())
            exporter(DecisionMade(time_s=0.01, governor="PM",
                                  current_mhz=2000.0, target_mhz=1800.0))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["kind"] == "tick"
        assert first["measured_power_w"] == 14.2
        assert exporter.events_written == 2

    def test_write_after_close_raises(self, tmp_path):
        exporter = JsonlEventExporter(tmp_path / "e.jsonl")
        exporter.close()
        with pytest.raises(Exception):
            exporter(_tick())


class TestCsvTraceExporter:
    def test_streams_only_tick_events(self, tmp_path):
        path = tmp_path / "trace.csv"
        with CsvTraceExporter(path) as exporter:
            exporter(DecisionMade(time_s=0.0, governor="PM",
                                  current_mhz=2000.0, target_mhz=2000.0))
            exporter(_tick(0.01))
            exporter(_tick(0.02, temperature_c=None))
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert exporter.rows_written == 2
        assert len(rows) == 2
        assert tuple(rows[0]) == TRACE_FIELDS
        assert rows[0]["frequency_mhz"] == "1800"
        assert rows[1]["temperature_c"] == ""

    def test_write_trace_csv_matches_streaming_layout(self, tmp_path):
        streamed = tmp_path / "streamed.csv"
        batch = tmp_path / "batch.csv"
        ticks = [_tick(0.01), _tick(0.02)]
        with CsvTraceExporter(streamed) as exporter:
            for tick in ticks:
                exporter(tick)
        assert write_trace_csv(ticks, batch) == 2
        assert streamed.read_text() == batch.read_text()


class TestTelemetryDirectory:
    def test_path_collides_with_file_raises_telemetry_error(self, tmp_path):
        collision = tmp_path / "occupied"
        collision.write_text("")
        with pytest.raises(TelemetryError, match="cannot create"):
            TelemetryDirectory(collision)

    def test_bundle_written_and_finalized(self, tmp_path):
        recorder = TelemetryRecorder()
        sink = TelemetryDirectory(tmp_path / "out")
        sink.attach(recorder)
        recorder.metrics.counter("controller.ticks").inc()
        recorder.metrics.counter("pstate.residency_s.1800").inc(0.01)
        with recorder.span("run"):
            recorder.emit(_tick())
        sink.finalize(recorder)

        out = tmp_path / "out"
        events = (out / "events.jsonl").read_text().strip().splitlines()
        assert len(events) == 1
        with open(out / "trace.csv", newline="") as handle:
            assert len(list(csv.DictReader(handle))) == 1
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["metrics"]["counters"]["controller.ticks"] == 1
        assert "run" in metrics["spans"]
        summary = (out / "summary.txt").read_text()
        assert "p-state residency" in summary
        assert "1800" in summary

    def test_exporter_failure_does_not_break_the_bus(self, tmp_path):
        recorder = TelemetryRecorder()
        sink = TelemetryDirectory(tmp_path / "out")
        sink.attach(recorder)
        sink.events.close()  # simulate a dead exporter mid-run
        seen = []
        recorder.bus.subscribe(seen.append)
        recorder.emit(_tick())
        assert len(seen) == 1  # healthy subscriber unaffected
        assert recorder.bus.errors


class TestRecorder:
    def test_null_recorder_is_inert(self):
        null = NullRecorder()
        assert null.enabled is False
        with null.span("anything"):
            pass
        null.emit(_tick())
        assert null.spans.snapshot() == {}
        assert null.bus.subscribers == ()

    def test_render_summary_smoke(self):
        recorder = TelemetryRecorder()
        recorder.metrics.counter("controller.ticks").inc(5)
        recorder.metrics.gauge("run.duration_s").set(0.05)
        text = render_run_summary(recorder)
        assert "controller.ticks" in text
        assert "run.duration_s" in text

    def test_session_recorder_installs_and_restores(self):
        recorder = TelemetryRecorder()
        assert current_session() is None
        with open_session(telemetry=recorder) as installed:
            assert installed.telemetry is recorder
            assert current_session() is installed
        assert current_session() is None


def _event_classes(cls=TelemetryEvent):
    for sub in cls.__subclasses__():
        yield sub
        yield from _event_classes(sub)


_FLOATS = (math.inf, -math.inf, math.nan, 0.1, 1e-300, 14.5)


def _sample_value(annotation: str, index: int):
    """A JSON-awkward value for a field annotated ``annotation``."""
    if annotation == "float":
        return _FLOATS[index % len(_FLOATS)]
    if annotation == "float | None":
        return None if index % 2 else math.nan
    if annotation == "int":
        return 7 + index
    if annotation == "bool":
        return index % 2 == 0
    if annotation == "str":
        return f'label "{index}" \\ é ☃\n'
    if annotation.startswith("Mapping["):
        return MappingProxyType(
            {"INST_RETIRED": math.inf, "DCU": 0.25, "NAN": math.nan}
        )
    if annotation == "tuple[float, ...]":
        return (600.0, math.inf)
    raise AssertionError(f"no sample value for a {annotation!r} field")


def _legacy_line(event) -> str:
    """The exporter's line before the C-encoder rewrite: the uncached
    ``to_dict`` written with ``json.dump``."""
    out = {"kind": event.kind}
    for f in dataclasses.fields(event):
        value = getattr(event, f.name)
        if isinstance(value, Mapping):
            value = dict(value)
        out[f.name] = value
    buffer = io.StringIO()
    json.dump(out, buffer)
    buffer.write("\n")
    return buffer.getvalue()


def test_jsonl_lines_match_legacy_encoding_for_every_event(tmp_path):
    events = []
    for cls in _event_classes():
        kwargs = {
            f.name: _sample_value(f.type, i)
            for i, f in enumerate(dataclasses.fields(cls))
        }
        events.append(cls(**kwargs))
    kinds = {e.kind for e in events}
    assert {"sample", "decision", "transition", "tick"} <= kinds
    assert len(kinds) == len(events)

    path = tmp_path / "events.jsonl"
    with JsonlEventExporter(path) as exporter:
        for event in events:
            exporter(event)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines == [_legacy_line(event) for event in events]
