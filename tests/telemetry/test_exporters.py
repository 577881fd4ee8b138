"""Tests for JSONL/CSV/summary exporters and the directory bundle."""

import csv
import dataclasses
import io
import json
import math
import os
import struct
import sys
import tempfile
from array import array
from types import MappingProxyType
from typing import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.controller import TraceRow
from repro.telemetry import (
    TICK_COLUMNS,
    JsonlEventExporter,
    NullRecorder,
    TelemetryDirectory,
    TelemetryRecorder,
    TicksRecorded,
    TRACE_FIELDS,
    render_run_summary,
    render_trace_csv,
    write_trace_csv,
)
from repro.errors import TelemetryError
from repro.exec.session import current_session, open_session
from repro.telemetry.bus import PStateTransition, TelemetryEvent
from repro.telemetry.report import load_events

_NAN = float("nan")


#: Doubles for the round trip: any float, plus the awkward ones.
_DOUBLES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from((
        _NAN, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
        sys.float_info.max, -sys.float_info.max, math.inf, -math.inf,
    )),
)
_RATE_NAMES = ("INST_DECODED", "DCU_LINES_IN", "BUS_TRAN_MEM")


def _bits(value):
    """``value``'s IEEE 754 bits (None stays None)."""
    return None if value is None else struct.pack("<d", value)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _ticks(times=(0.01,), temperatures=(55.5,)):
    """A ``ticks`` record: one tick per entry of ``times``."""
    n = len(times)
    columns = {name: array("d", [0.0] * n) for name in TICK_COLUMNS}
    columns.update(
        time_s=array("d", times),
        frequency_mhz=array("d", [1800.0] * n),
        measured_power_w=array("d", [14.2] * n),
        true_power_w=array("d", [14.0] * n),
        instructions=array("d", [2.4e7] * n),
        duty=array("d", [1.0] * n),
        temperature_c=array("d", temperatures),
    )
    return TicksRecorded(
        time_s=times[-1], workload="ammp", governor="PM", columns=columns,
        rates={"INST_DECODED": array("d", [1.5] * n)},
    )


def _transition(time_s=0.01):
    return PStateTransition(time_s=time_s, from_mhz=2000.0, to_mhz=1800.0)


class TestJsonlExporter:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlEventExporter(path) as exporter:
            exporter(_ticks((0.01, 0.02), (55.5, 56.0)))
            exporter(_transition())
        lines, _, _ = load_events(path)
        assert len(lines) == 2
        first = lines[0]
        assert first["kind"] == "ticks"
        assert first["columns"]["measured_power_w"] == [14.2, 14.2]
        assert first["rates"] == {"INST_DECODED": [1.5, 1.5]}
        assert exporter.events_written == 2

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_ticks_columns_round_trip_bit_exact(self, data):
        # Columns and rates as drawn, NaN, signed zeros, subnormals and
        # huge values included, come back bit for bit through the
        # column file; NaN (no value) reads back as None, and the line
        # stays strict JSON.
        records = []
        for _ in range(data.draw(st.integers(1, 3))):
            n = data.draw(st.integers(0, 6))
            column = st.lists(_DOUBLES, min_size=n, max_size=n)
            names = data.draw(
                st.sets(st.sampled_from(_RATE_NAMES), max_size=3)
            )
            records.append(TicksRecorded(
                time_s=data.draw(st.floats(0.0, 1e6)),
                workload="ammp", governor="PM",
                columns={
                    name: array("d", data.draw(column))
                    for name in TICK_COLUMNS
                },
                rates={name: data.draw(column) for name in sorted(names)},
            ))
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "events.jsonl")
            with JsonlEventExporter(path) as exporter:
                for record in records:
                    exporter(record)
            with open(path) as handle:
                for line in handle:
                    json.loads(line, parse_constant=_reject_constant)
            events, skipped, truncated = load_events(path)
        assert (skipped, truncated) == (0, False)
        assert len(events) == len(records)
        for event, record in zip(events, records):
            assert event["time_s"] == record.time_s
            for name in ("columns", "rates"):
                expected = getattr(record, name)
                assert list(event[name]) == list(expected)
                for key, values in expected.items():
                    assert list(map(_bits, event[name][key])) == [
                        None if value != value else _bits(value)
                        for value in values
                    ]

    def test_write_after_close_raises(self, tmp_path):
        exporter = JsonlEventExporter(tmp_path / "e.jsonl")
        exporter.close()
        with pytest.raises(Exception):
            exporter(_ticks())


class TestRenderTraceCsv:
    def test_renders_only_tick_records(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlEventExporter(path) as exporter:
            exporter(_transition(0.0))
            exporter(_ticks((0.01, 0.02), (55.5, _NAN)))
            exporter(_ticks((0.03,)))
        events, _, _ = load_events(path)
        text = render_trace_csv(events)
        rows = list(csv.DictReader(io.StringIO(text, newline="")))
        assert len(rows) == 3
        assert tuple(rows[0]) == TRACE_FIELDS
        assert rows[0]["frequency_mhz"] == "1800"
        assert rows[1]["temperature_c"] == ""
        assert [row["time_s"] for row in rows] == ["0.0100", "0.0200",
                                                  "0.0300"]
        assert render_trace_csv([]) == ",".join(TRACE_FIELDS) + "\r\n"

    def test_render_matches_write_trace_csv(self, tmp_path):
        path = tmp_path / "events.jsonl"
        batch = tmp_path / "batch.csv"
        record = _ticks((0.01, 0.02), (55.5, _NAN))
        with JsonlEventExporter(path) as exporter:
            exporter(record)
        events, _, _ = load_events(path)
        columns = record.columns
        rows = [
            TraceRow(
                time_s=columns["time_s"][i],
                frequency_mhz=columns["frequency_mhz"][i],
                measured_power_w=columns["measured_power_w"][i],
                true_power_w=columns["true_power_w"][i],
                instructions=columns["instructions"][i],
                rates={},
                duty=columns["duty"][i],
                temperature_c=(55.5, None)[i],
            )
            for i in range(2)
        ]
        assert write_trace_csv(rows, batch) == 2
        with open(batch, newline="") as handle:
            assert render_trace_csv(events) == handle.read()


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
            recorder.emit(_ticks())
        sink.finalize(recorder)

        out = tmp_path / "out"
        events = (out / "events.jsonl").read_text().strip().splitlines()
        assert len(events) == 1
        assert sorted(os.listdir(out)) == [
            "events.f64", "events.jsonl", "metrics.json", "summary.txt",
        ]
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
        recorder.emit(_ticks())
        assert len(seen) == 1  # healthy subscriber unaffected
        assert recorder.bus.errors


class TestRecorder:
    def test_null_recorder_is_inert(self):
        null = NullRecorder()
        assert null.enabled is False
        with null.span("anything"):
            pass
        null.emit(_ticks())
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
    if annotation == "Mapping[str, Sequence[float]]":
        return MappingProxyType(
            {"INST_RETIRED": array("d", (math.inf, 0.25, math.nan))}
        )
    if annotation.startswith("Mapping["):
        return MappingProxyType(
            {"INST_RETIRED": math.inf, "DCU": 0.25, "NAN": math.nan}
        )
    if annotation == "tuple[float, ...]":
        return (600.0, math.inf)
    raise AssertionError(f"no sample value for a {annotation!r} field")


def _legacy_line(event) -> str:
    """The exporter's line before the C-encoder rewrite: the uncached
    ``to_dict`` written with ``json.dump``.  A ``ticks`` record's
    columns were lists, NaN written as null."""
    out = {"kind": event.kind}
    for f in dataclasses.fields(event):
        value = getattr(event, f.name)
        if isinstance(value, Mapping):
            value = dict(value)
            if isinstance(event, TicksRecorded):
                value = {
                    name: [None if v != v else v for v in values]
                    for name, values in value.items()
                }
        out[f.name] = value
    buffer = io.StringIO()
    json.dump(out, buffer)
    buffer.write("\n")
    return buffer.getvalue()


def test_jsonl_lines_match_legacy_encoding_for_every_event(tmp_path):
    # Every line but a ticks record's is the legacy line, byte for
    # byte; the ticks line, read back through its column file, is what
    # the legacy line parses to.
    events = []
    for cls in _event_classes():
        kwargs = {
            f.name: _sample_value(f.type, i)
            for i, f in enumerate(dataclasses.fields(cls))
        }
        events.append(cls(**kwargs))
    kinds = {e.kind for e in events}
    assert {"run_started", "transition", "ticks", "run_finished"} <= kinds
    assert len(kinds) == len(events)

    path = tmp_path / "events.jsonl"
    with JsonlEventExporter(path) as exporter:
        for event in events:
            exporter(event)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    legacy = [_legacy_line(event) for event in events]
    ticks = [e.kind for e in events].index("ticks")
    assert lines[:ticks] + lines[ticks + 1:] == (
        legacy[:ticks] + legacy[ticks + 1:]
    )
    loaded, _, _ = load_events(path)
    assert json.dumps(loaded[ticks]) == json.dumps(json.loads(legacy[ticks]))
