"""Controller/runner instrumentation: events, metrics, spans, overhead."""

import collections
import gc
import json
import statistics
import sys
import time

import pytest

from repro.core.controller import PowerManagementController
from repro.core.governors.performance_maximizer import PerformanceMaximizer
from repro.core.governors.powersave import PowerSave
from repro.core.limits import ConstraintSchedule
from repro.core.models.performance import PerformanceModel
from repro.core.models.power import LinearPowerModel
from repro.core.governors.throttling_pm import ThrottlingMaximizer
from repro.errors import ExperimentError
from repro.exec import (
    ExperimentConfig,
    GovernorSpec,
    RunCell,
    RunPlan,
    as_governor_spec,
    execute_cell,
)
from repro.platform.machine import Machine, MachineConfig
from repro.exec.session import open_session
from repro.telemetry import (
    JsonlEventExporter,
    NullRecorder,
    TelemetryRecorder,
)
from repro.telemetry.exporters import render_trace_csv
from repro.telemetry.report import load_events
from repro.workloads.registry import get_workload

MODEL = LinearPowerModel.paper_model()


def _instrumented_run(workload="ammp", scale=0.05, governor="pm",
                      schedule=None, recorder=None):
    recorder = recorder if recorder is not None else TelemetryRecorder()
    events = []
    recorder.bus.subscribe(events.append)
    machine = Machine(MachineConfig(seed=0))
    if governor == "pm":
        gov = PerformanceMaximizer(machine.config.table, MODEL, 14.5)
    else:
        gov = PowerSave(
            machine.config.table, PerformanceModel.paper_primary(), 0.8
        )
    controller = PowerManagementController(
        machine, gov, keep_trace=True, telemetry=recorder
    )
    result = controller.run(get_workload(workload).scaled(scale),
                            schedule=schedule)
    return result, recorder, events


class TestControllerInstrumentation:
    def test_event_stream_shape_and_ordering(self):
        result, recorder, events = _instrumented_run()
        kinds = [e.kind for e in events]
        assert kinds[0] == "run_started"
        assert kinds[-1] == "run_finished"
        # The ticks arrive once, as the columns of one record, just
        # before the run's end.
        assert kinds[-2] == "ticks"
        assert kinds.count("ticks") == 1
        record = events[-2]
        assert {len(c) for c in record.columns.values()} == {
            len(result.trace)
        }
        assert list(record.rates) == ["INST_DECODED"]
        # Timestamps never run backwards.
        times = [e.time_s for e in events]
        assert times == sorted(times)
        # The record holds the trace's values, and each transition
        # happened at a tick whose target differs from its frequency.
        columns = record.columns
        for i, row in enumerate(result.trace):
            assert columns["time_s"][i] == row.time_s
            assert columns["measured_power_w"][i] == row.measured_power_w
            assert record.rates["INST_DECODED"][i] == row.rates[
                next(iter(row.rates))
            ]
        moves = [
            (t, f, to)
            for t, f, to in zip(columns["time_s"], columns["frequency_mhz"],
                                columns["target_mhz"])
            if f != to
        ]
        assert moves == [
            (e.time_s, e.from_mhz, e.to_mhz)
            for e in events if e.kind == "transition"
        ]

    def test_residency_metric_sums_to_duration(self):
        result, recorder, _ = _instrumented_run()
        counters = recorder.metrics.snapshot()["counters"]
        residency = sum(
            v for k, v in counters.items()
            if k.startswith("pstate.residency_s.")
        )
        assert residency == pytest.approx(result.duration_s, rel=1e-9)

    def test_histogram_count_matches_ticks(self):
        result, recorder, _ = _instrumented_run()
        snap = recorder.metrics.snapshot()
        ticks = snap["counters"]["controller.ticks"]
        assert ticks == len(result.trace)
        assert snap["histograms"]["power.measured_w"]["count"] == ticks
        # The first tick has no prior estimate to score.
        assert snap["histograms"]["projection.error_w"]["count"] == ticks - 1

    def test_transitions_counter_matches_result(self):
        result, recorder, events = _instrumented_run()
        snap = recorder.metrics.snapshot()
        assert snap["counters"]["controller.transitions"] == result.transitions
        transition_events = [e for e in events if e.kind == "transition"]
        assert len(transition_events) == result.transitions

    def test_spans_cover_every_phase(self):
        # Spans are per cell: the caller's root span covers every phase
        # of the loop, and the controller opens no per-tick spans.
        recorder = TelemetryRecorder()
        with recorder.span("run"):
            result, _, _ = _instrumented_run(recorder=recorder)
        assert len(result.trace) > 1
        spans = recorder.spans.snapshot()
        assert list(spans) == ["run"]
        assert spans["run"]["count"] == 1

    def test_constraint_changes_emit_events(self):
        schedule = ConstraintSchedule()
        schedule.add_power_limit(0.02, 11.0)
        _, _, events = _instrumented_run(scale=0.05, schedule=schedule)
        constraint = [e for e in events if e.kind == "constraint"]
        assert len(constraint) == 1
        assert "11.0" in constraint[0].label

    def test_powersave_runs_without_power_limit_metrics(self):
        # PS has no power_limit_w; violations stay zero, run still works.
        result, recorder, _ = _instrumented_run(
            workload="swim", governor="ps"
        )
        snap = recorder.metrics.snapshot()
        assert snap["counters"]["controller.limit_violations"] == 0
        assert result.duration_s > 0

    def test_observed_throttling_run_records_no_estimate(self, tmp_path):
        # ThrottlingMaximizer's estimate_power takes a duty cycle, not a
        # p-state: only the Eq. 2 PerformanceMaximizers feed estimate_w.
        recorder = TelemetryRecorder()
        path = tmp_path / "events.jsonl"
        with JsonlEventExporter(path) as exporter:
            recorder.bus.subscribe(exporter)
            machine = Machine(MachineConfig(seed=1))
            governor = ThrottlingMaximizer(
                machine.config.table, MODEL, machine.throttle, 12.5
            )
            PowerManagementController(
                machine, governor, telemetry=recorder
            ).run(get_workload("gzip").scaled(0.05))
        (record,) = [e for e in load_events(path)[0] if e["kind"] == "ticks"]
        estimates = record["columns"]["estimate_w"]
        assert len(estimates) > 0
        assert estimates == [None] * len(estimates)
        assert recorder.metrics.snapshot()["histograms"][
            "projection.error_w"]["count"] == 0

    def test_run_failing_mid_tick_drops_the_torn_tick(self):
        # The estimate comes after the tick's rates and cycles are
        # appended, so failing there leaves a torn last tick.
        class FailingPM(PerformanceMaximizer):
            decisions = 0
            deciding = False

            def decide(self, sample, current):
                self.deciding = True
                try:
                    return super().decide(sample, current)
                finally:
                    self.deciding = False
                    self.decisions += 1

            def estimate_power(self, *args):
                # The record's estimate of the sixth tick fails.
                if not self.deciding and self.decisions == 6:
                    raise RuntimeError("estimate failed")
                return super().estimate_power(*args)

        recorder = TelemetryRecorder()
        records = []
        recorder.bus.subscribe(
            lambda e: records.append(e) if e.kind == "ticks" else None
        )
        machine = Machine(MachineConfig(seed=0))
        governor = FailingPM(machine.config.table, MODEL, 14.5)
        with pytest.raises(RuntimeError, match="estimate failed"):
            PowerManagementController(
                machine, governor, telemetry=recorder
            ).run(get_workload("gzip").scaled(0.05))
        (record,) = records
        assert {len(c) for c in record.columns.values()} == {5}
        assert {len(c) for c in record.rates.values()} == {5}
        assert recorder.metrics.snapshot()["counters"][
            "controller.ticks"] == 5

    def test_uninstrumented_run_identical_to_instrumented(self):
        # Telemetry must observe, never perturb: identical simulated
        # outcomes with and without a recorder.
        plain, _, _ = _instrumented_run(recorder=NullRecorder())
        observed, _, _ = _instrumented_run()
        assert plain.duration_s == observed.duration_s
        assert plain.measured_energy_j == observed.measured_energy_j
        assert plain.transitions == observed.transitions


class TestRunnerIntegration:
    @staticmethod
    def _pm_cell():
        return RunCell(
            workload=get_workload("gzip"),
            governor=as_governor_spec(
                lambda table: PerformanceMaximizer(table, MODEL, 14.5)
            ),
        )

    def test_execute_cell_wraps_root_span(self):
        recorder = TelemetryRecorder()
        config = ExperimentConfig(scale=0.05)
        cells = 2
        for _ in range(cells):
            execute_cell(self._pm_cell(), config, telemetry=recorder)
        spans = recorder.spans.snapshot()
        # One root span per cell and nothing per tick beneath it.
        assert list(spans) == ["run"]
        assert spans["run"]["count"] == cells

    def test_one_ticks_line_per_run_of_controller_ticks(self, tmp_path):
        config = ExperimentConfig(scale=0.05, keep_trace=True)
        plan = RunPlan(config, (self._pm_cell(), self._pm_cell()))
        with open_session(telemetry_dir=tmp_path / "tel") as session:
            results = session.run_plan(plan)
        events, _, _ = load_events(tmp_path / "tel" / "events.jsonl")
        records = [e for e in events if e["kind"] == "ticks"]
        assert len(records) == len(results)
        lengths = [len(r["columns"]["time_s"]) for r in records]
        assert lengths == [len(result.trace) for result in results]
        with open(tmp_path / "tel" / "metrics.json") as handle:
            counters = json.load(handle)["metrics"]["counters"]
        assert counters["controller.ticks"] == sum(lengths)

    def test_observed_multicore_cell_writes_a_ticks_record(self, tmp_path):
        cell = RunCell(
            workload="gzip", governor=GovernorSpec.pm(14.5), threads=2
        )
        config = ExperimentConfig(scale=0.05, keep_trace=True)
        with open_session(telemetry_dir=tmp_path / "tel") as session:
            (result,) = session.run_plan(RunPlan(config, (cell,)))
        events, _, _ = load_events(tmp_path / "tel" / "events.jsonl")
        (record,) = [e for e in events if e["kind"] == "ticks"]
        columns = record["columns"]
        assert len(columns["time_s"]) == len(result.trace) > 0
        assert columns["measured_power_w"] == [
            row.measured_power_w for row in result.trace
        ]
        # The lead domain's PM estimates every tick after its first.
        assert None not in columns["estimate_w"]
        assert columns["limit_w"] == [14.5] * len(result.trace)
        trace = render_trace_csv(events)
        assert len(trace.splitlines()) == len(result.trace) + 1

    @pytest.mark.parametrize("cell", [
        RunCell(workload="gzip", governor=GovernorSpec.pm(14.5)),
        RunCell(workload="gzip", governor=GovernorSpec.adaptive_pm(14.5)),
        RunCell(workload="gzip", governor=GovernorSpec.pm(14.5), threads=2),
    ], ids=["table", "hooked", "multicore"])
    def test_failed_run_publishes_the_ticks_it_ran(self, tmp_path, cell):
        config = ExperimentConfig(scale=1.0, max_seconds=0.1)
        with pytest.raises(ExperimentError, match="exceeded"):
            with open_session(telemetry_dir=tmp_path / "tel") as session:
                session.run_plan(RunPlan(config, (cell,)))
        events, _, _ = load_events(tmp_path / "tel" / "events.jsonl")
        kinds = [e["kind"] for e in events]
        assert "run_finished" not in kinds
        (record,) = [e for e in events if e["kind"] == "ticks"]
        columns = record["columns"]
        n = len(columns["time_s"])
        assert n > 0
        assert {len(c) for c in columns.values()} == {n}
        assert {len(c) for c in record["rates"].values()} == {n}
        if cell.threads == 1:
            with open(tmp_path / "tel" / "metrics.json") as handle:
                metrics = json.load(handle)["metrics"]
            assert metrics["counters"]["controller.ticks"] == n
            assert metrics["histograms"]["power.measured_w"]["count"] == n
            assert metrics["counters"].get(
                "controller.transitions", 0
            ) == kinds.count("transition")

    def test_execute_cell_picks_up_current_recorder(self):
        recorder = TelemetryRecorder()
        config = ExperimentConfig(scale=0.05)
        with open_session(telemetry=recorder):
            execute_cell(self._pm_cell(), config)
        assert recorder.metrics.counter("controller.ticks").value > 0


def _pm_run(telemetry, scale):
    """One PM run of ammp at ``scale`` (table-mode decisions)."""
    machine = Machine(MachineConfig(seed=0))
    gov = PerformanceMaximizer(machine.config.table, MODEL, 14.5)
    PowerManagementController(
        machine, gov, keep_trace=False, telemetry=telemetry
    ).run(get_workload("ammp").scaled(scale))


def _throttling_run(telemetry, scale):
    """One ThrottlingMaximizer run of ammp (hook-mode decisions)."""
    machine = Machine(MachineConfig(seed=0))
    gov = ThrottlingMaximizer(
        machine.config.table, MODEL, machine.throttle, 12.5
    )
    PowerManagementController(
        machine, gov, keep_trace=False, telemetry=telemetry
    ).run(get_workload("ammp").scaled(scale))


def _python_calls(run, telemetry, scale):
    """Every Python and C call ``run(telemetry, scale)`` makes, counted
    by callee."""
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[(code.co_filename, code.co_firstlineno,
                   code.co_name)] += 1
        elif event == "c_call":
            calls[(getattr(arg, "__module__", None),
                   getattr(arg, "__qualname__", repr(arg)))] += 1

    gc.disable()  # a collection's callbacks are not the run's calls
    sys.setprofile(profile)
    try:
        run(telemetry, scale)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


class TestOverhead:
    @pytest.mark.parametrize("run", [_pm_run, _throttling_run],
                             ids=["table-mode", "hook-mode"])
    def test_disabled_recorder_adds_no_per_tick_calls(self, run):
        """A disabled recorder adds at most a per-run constant of calls.

        The extra calls a ``NullRecorder`` run makes over a
        ``telemetry=None`` run must not depend on the run's length: a
        per-tick call behind a disabled recorder would scale with it.
        """
        extras = []
        for scale in (0.1, 0.5):
            recorder = NullRecorder()  # built outside the profiled runs
            run(None, scale)           # fill the per-process caches
            base = _python_calls(run, None, scale)
            off = _python_calls(run, recorder, scale)
            extras.append({
                key: off[key] - base[key] for key in off.keys() | base.keys()
                if off[key] != base[key]
            })
        assert extras[0] == extras[1], extras

    def test_disabled_telemetry_overhead_within_5_percent(self):
        """A disabled recorder costs within 5% of no recorder at all.

        Both runs take the one tick kernel; a disabled recorder must not
        pull any per-tick telemetry work in behind it.  The two sides
        run in interleaved pairs, alternating which goes first, so a
        load swing hits both halves of a pair, and the median of the
        per-pair ratios discards the pairs it still skews.  CPU time
        leaves out the time the process waits for a CPU, and no garbage
        collection runs inside the timed loop.
        """
        recorder = NullRecorder()
        _pm_run(None, 5.0)      # warm caches before timing
        _pm_run(recorder, 5.0)
        ratios = []
        gc.collect()
        gc.disable()
        try:
            for pair in range(31):
                seconds = {}
                sides = (None, recorder) if pair % 2 else (recorder, None)
                for telemetry in sides:
                    start = time.process_time()
                    _pm_run(telemetry, 5.0)
                    seconds[telemetry is None] = time.process_time() - start
                ratios.append(seconds[False] / seconds[True])
        finally:
            gc.enable()
        assert statistics.median(ratios) <= 1.05, sorted(ratios)

    def test_disabled_branch_cost_is_negligible(self):
        # The only telemetry-off cost is `tel is not None and tel.enabled`
        # style branches: directly bound their per-tick cost.
        recorder = None
        start = time.perf_counter()
        hits = 0
        for _ in range(100000):
            if recorder is not None and recorder.enabled:
                hits += 1
        per_check = (time.perf_counter() - start) / 100000
        # A tick costs ~100 us of simulation; even 10 checks/tick must
        # stay under 5% of that.
        assert per_check * 10 < 0.05 * 100e-6
        assert hits == 0
