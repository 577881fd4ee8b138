"""The Monitor -> Estimate -> Control run loop (paper Fig. 3).

:class:`PowerManagementController` wires a machine, a power meter, a
counter sampler and a governor into the paper's 10 ms loop:

* each tick the machine executes 10 ms of the workload,
* the sampler turns the PMU deltas into per-cycle rates,
* the governor picks the next p-state (estimation happens inside it),
* the SpeedStep driver actuates the change (charged as dead time by the
  machine on the next tick).

The controller also delivers scheduled constraint changes (the paper's
runtime signals), feeds measured power back to adaptive governors, and
returns a :class:`RunResult` with everything the experiments need:
measured power samples, per-tick trace, residency and energy.  The loop
itself is one fused tick kernel, :func:`repro.core.blockloop.run_fast`;
this module builds its inputs (:class:`_RunState`) and its result.  A
:class:`~repro.multicore.machine.MulticoreMachine` runs through the same
controller: the governor samples core 0 and actuates the package, and
the kernel steps one lane per core.

When a :class:`~repro.telemetry.TelemetryRecorder` is supplied the loop
is fully observable.  Each tick's values -- counter sample, decision,
power, estimate -- go into the run's :class:`TickColumns` as plain
floats; at the run's end, or when it raises, one helper
(:class:`_TickTelemetry`) folds them into the metrics registry (tick
counts, p-state residency, transitions, power-limit violations, the
power-projection error distribution) and publishes them as one
``ticks`` record (:class:`~repro.telemetry.bus.TicksRecorded`).  Transitions and the
other rare moments are published as they happen.  Wall-clock spans are
per cell (the execution engine's root ``run`` span), never per tick.
With ``telemetry=None`` (the default) every instrumentation block is
skipped behind a single pre-computed branch, so an uninstrumented run
costs the same as before the subsystem existed.

When a :class:`~repro.core.resilience.ResilienceConfig` is supplied the
loop is *hardened*: counter samples are validated and held over across
dropped/garbled reads, measured power is outlier-filtered, failed
p-state transitions are retried with exponential backoff (charged as
real dead time), a watchdog detects a stalled sampler, and after
repeated unrecoverable faults the controller degrades gracefully to a
configurable fail-safe static p-state and completes the run.  A
:class:`~repro.faults.injector.FaultInjector` can be attached to drill
exactly those failure paths; with injection disabled the run is
bit-for-bit identical to an unwrapped one.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Mapping

import numpy as np

from repro.acpi.pstates import PState
from repro.core import blockloop
from repro.core.governors.base import Governor
from repro.core.limits import ConstraintSchedule
from repro.core.resilience import (
    PowerReadingFilter,
    ResilienceConfig,
    sample_is_plausible,
)
from repro.core.sampling import (
    CounterSample,
    CounterSampler,
    MultiplexedCounterSampler,
)
from repro.errors import ExperimentError, SensorFault, TransitionError
from repro.measurement.power_meter import (
    PowerMeter,
    PowerSamples,
    moving_average_watts,
)
from repro.multicore.machine import MulticoreMachine
from repro.platform.events import Event
from repro.platform.machine import Machine
from repro.telemetry.bus import (
    TICK_COLUMNS,
    DegradedModeEntered,
    FaultRecovered,
    PStateTransition,
    RunFinished,
    RunStarted,
    TicksRecorded,
    WatchdogTripped,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.adaptation.manager import AdaptationManager
    from repro.faults.injector import FaultInjector
from repro.telemetry.metrics import (
    POWER_BUCKETS_W,
    PROJECTION_ERROR_BUCKETS_W,
)
from repro.telemetry.recorder import TelemetryRecorder
from repro.workloads.base import Workload


@dataclass(frozen=True)
class TraceRow:
    """Per-tick trace entry (timestamps are tick-end, like the meter)."""

    time_s: float
    frequency_mhz: float
    measured_power_w: float
    true_power_w: float
    instructions: float
    rates: dict
    #: Clock-modulation duty in effect (1.0 unless a throttling governor
    #: is driving the T-states).
    duty: float = 1.0
    #: Junction temperature (None on isothermal machines).
    temperature_c: float | None = None


_NAN = float("nan")


class TickColumns:
    """One run's per-tick record as ``array('d')`` columns.

    One attribute per :data:`~repro.telemetry.bus.TICK_COLUMNS` name,
    NaN standing for "no value", plus per-cycle ``rates`` columns keyed
    by :class:`~repro.platform.events.Event`.  The tick kernel appends
    plain floats; :meth:`trace` and :meth:`event` read the columns once,
    at the run's end.  The buffers belong to one run, so their size is
    bounded by the longest run, not by the session.
    """

    __slots__ = TICK_COLUMNS + ("rates", "trace_rates")

    def __init__(self) -> None:
        for name in TICK_COLUMNS:
            setattr(self, name, array("d"))
        self.rates: Dict[Event, array] = {}
        #: Per-tick trace rates, kept with ``keep_trace``: the sample the
        #: governor was handed (held over or corrupted under faults),
        #: which the ``rates`` columns (the counters' own sample) need
        #: not be.
        self.trace_rates: list[dict] = []

    def add_rates(self, rates: Mapping[Event, float]) -> None:
        """Append one tick's rates, before its ``time_s``; events the
        sample does not cover get NaN."""
        n = len(self.time_s)
        columns = self.rates
        for event, rate in rates.items():
            column = columns.get(event)
            if column is None:
                column = columns[event] = array("d", (_NAN,)) * n
            column.append(rate)
        if len(columns) > len(rates):
            for column in columns.values():
                if len(column) == n:
                    column.append(_NAN)

    def truncate(self, n: int) -> None:
        """Keep the first ``n`` ticks (drops a failed run's torn tick)."""
        for name in TICK_COLUMNS:
            del getattr(self, name)[n:]
        for column in self.rates.values():
            del column[n:]
        del self.trace_rates[n:]

    def trace(self) -> tuple[TraceRow, ...]:
        """The run's per-tick trace (the run kept ``trace_rates``)."""
        new = object.__new__
        rows = []
        append = rows.append
        for time_s, freq, measured, true_w, instr, rate, duty, temp in zip(
            self.time_s, self.frequency_mhz, self.measured_power_w,
            self.true_power_w, self.instructions, self.trace_rates, self.duty,
            self.temperature_c,
        ):
            # Filling the instance dict in field order builds the object
            # the frozen dataclass __init__ would, at half the cost.
            row = new(TraceRow)
            values = row.__dict__
            values["time_s"] = time_s
            values["frequency_mhz"] = freq
            values["measured_power_w"] = measured
            values["true_power_w"] = true_w
            values["instructions"] = instr
            values["rates"] = rate
            values["duty"] = duty
            values["temperature_c"] = None if temp != temp else temp
            append(row)
        return tuple(rows)

    def event(
        self, time_s: float, workload: str, governor: str
    ) -> TicksRecorded:
        """The run's ``ticks`` record."""
        return TicksRecorded(
            time_s=time_s,
            workload=workload,
            governor=governor,
            columns={name: getattr(self, name) for name in TICK_COLUMNS},
            rates={event.name: column for event, column in self.rates.items()},
        )


@dataclass
class RunResult:
    """Outcome of one (workload, governor) run.

    All energies follow the paper's accounting: measured energy is the
    sum over 10 ms samples of sample power x interval (§IV-B2).
    """

    workload: str
    governor: str
    duration_s: float
    instructions: float
    measured_energy_j: float
    true_energy_j: float
    samples: PowerSamples
    trace: tuple[TraceRow, ...]
    residency_s: Dict[float, float] = field(default_factory=dict)
    transitions: int = 0
    #: True when the hardened controller fell back to the fail-safe
    #: static p-state at some point during the run.
    degraded: bool = False
    #: Recovery actions taken by the hardened controller, keyed
    #: ``subsystem.action`` (empty for non-resilient runs).
    recoveries: Dict[str, int] = field(default_factory=dict)

    @property
    def mean_power_w(self) -> float:
        """Measured mean power over the run."""
        if self.duration_s <= 0:
            return 0.0
        return self.measured_energy_j / self.duration_s

    @property
    def ips(self) -> float:
        """Achieved instructions per second."""
        if self.duration_s <= 0:
            return 0.0
        return self.instructions / self.duration_s

    def moving_average_power(self, window: int = 10) -> tuple[tuple[float, float], ...]:
        """Measured power averaged over ``window`` samples (paper: 10).

        This is the series the paper uses to judge PM's limit adherence
        ("moving window of ten, 10 ms samples", §IV-A1).
        """
        if window <= 0:
            raise ExperimentError("window must be positive")
        return tuple(moving_average_watts(self.samples, window))

    def violation_fraction(self, limit_w: float, window: int = 10) -> float:
        """Fraction of run time the windowed power exceeds ``limit_w``."""
        series = self.moving_average_power(window)
        if not series:
            return 0.0
        over = sum(1 for _, watts in series if watts > limit_w + 1e-9)
        return over / len(series)

    def __setstate__(self, state: dict) -> None:
        # A result pickled before samples were columns (a results
        # journal or campaign store) carries a tuple of PowerSample.
        samples = state.get("samples")
        if samples is not None and not isinstance(samples, PowerSamples):
            state = {**state, "samples": PowerSamples.from_samples(samples)}
        self.__dict__.update(state)


class _ResilienceRuntime:
    """Per-run fault-tolerance state for one hardened controller run.

    Owns the holdover/validation, watchdog, retry and degradation logic
    so the run loop stays readable; every recovery action is counted on
    :attr:`recoveries` and emitted as telemetry when a recorder is on.
    """

    def __init__(
        self,
        config: ResilienceConfig,
        machine: Machine,
        tel: TelemetryRecorder | None,
    ):
        self.config = config
        self._machine = machine
        self._tel = tel if (tel is not None and tel.enabled) else None
        table = machine.speedstep.table
        self.safe_pstate = (
            table.by_frequency(config.safe_frequency_mhz)
            if config.safe_frequency_mhz is not None
            else table.slowest
        )
        self.degraded = False
        self.recoveries: Dict[str, int] = {}
        self._last_good_sample: CounterSample | None = None
        self._sampler_fault_streak = 0
        self._actuator_fault_streak = 0
        self._power_filter = PowerReadingFilter(
            config.power_window,
            config.power_outlier_factor,
            config.power_floor_w,
        )
        self._last_temp: float | None = None
        self._temp_repeats = 0
        self._temp_masked = False

    def _recover(self, subsystem: str, action: str, attempts: int = 0) -> None:
        key = f"{subsystem}.{action}"
        self.recoveries[key] = self.recoveries.get(key, 0) + 1
        tel = self._tel
        if tel is not None:
            tel.metrics.counter(f"resilience.{key}").inc()
            tel.emit(
                FaultRecovered(
                    time_s=self._machine.now_s,
                    subsystem=subsystem,
                    action=action,
                    attempts=attempts,
                )
            )

    def enter_degraded(self, reason: str) -> None:
        """Pin the fail-safe p-state for the rest of the run (idempotent)."""
        if self.degraded:
            return
        self.degraded = True
        tel = self._tel
        if tel is not None:
            tel.metrics.counter("resilience.degradations").inc()
            tel.emit(
                DegradedModeEntered(
                    time_s=self._machine.now_s,
                    reason=reason,
                    safe_frequency_mhz=self.safe_pstate.frequency_mhz,
                )
            )

    def acquire_sample(self, sampler, interval_s: float) -> CounterSample | None:
        """Sample with validation, last-good holdover and the watchdog.

        Returns the tick's sample (possibly held over); None means no
        good sample exists yet and the decision should be skipped.
        """
        try:
            sample = sampler.sample(interval_s)
            ok = sample_is_plausible(sample, self.config.max_plausible_rate)
        except SensorFault:
            ok = False
        if ok:
            self._sampler_fault_streak = 0
            self._last_good_sample = sample
            return sample
        self._sampler_fault_streak += 1
        if (
            self._sampler_fault_streak >= self.config.watchdog_fault_ticks
            and not self.degraded
        ):
            tel = self._tel
            if tel is not None:
                tel.emit(
                    WatchdogTripped(
                        time_s=self._machine.now_s,
                        consecutive_faults=self._sampler_fault_streak,
                    )
                )
            self.enter_degraded("sampler watchdog: monitor stalled")
        if self._last_good_sample is not None:
            self._recover("sampler", "holdover")
            return self._last_good_sample
        self._recover("sampler", "skip")
        return None

    def filter_power(self, watts: float) -> float:
        """Validate a measured-power reading, holding the last good one."""
        if self._power_filter.accept(watts):
            return watts
        last = self._power_filter.last_good
        if last is None:
            return watts
        self._recover("meter", "power_holdover")
        return last

    def observe_temperature(self, temp_c: float | None) -> float | None:
        """Mask a stuck thermal sensor (N identical consecutive reads)."""
        if temp_c is None:
            self._last_temp = None
            self._temp_repeats = 0
            self._temp_masked = False
            return None
        if self._last_temp is not None and temp_c == self._last_temp:
            self._temp_repeats += 1
        else:
            self._temp_repeats = 0
            self._temp_masked = False
        self._last_temp = temp_c
        if self._temp_repeats + 1 >= self.config.stuck_temperature_ticks:
            if not self._temp_masked:
                self._temp_masked = True
                self._recover("thermal", "masked")
            return None
        return temp_c

    def actuate(self, driver, target: PState) -> bool:
        """Actuate with retry + exponential backoff; False = p-state held.

        Each retry's backoff is charged to the machine as real dead
        time, so recovery is never free.  Repeated exhausted retries
        trip graceful degradation.
        """
        cfg = self.config
        try:
            driver.set_pstate(target)
            self._actuator_fault_streak = 0
            return True
        except TransitionError:
            pass
        backoff = cfg.retry_backoff_s
        dvfs = self._machine.dvfs
        for attempt in range(1, cfg.max_transition_retries + 1):
            if backoff > 0:
                dvfs.charge_dead_time(backoff)
            backoff *= cfg.retry_backoff_factor
            try:
                driver.set_pstate(target)
            except TransitionError:
                continue
            self._actuator_fault_streak = 0
            self._recover("driver", "retry", attempts=attempt)
            return True
        self._actuator_fault_streak += 1
        self._recover("driver", "hold", attempts=cfg.max_transition_retries)
        if self._actuator_fault_streak >= cfg.degrade_after_faults:
            self.enter_degraded("repeated transition failures")
        return False


class PowerManagementController:
    """Drives one governor over one workload at the 10 ms cadence."""

    def __init__(
        self,
        machine: Machine | MulticoreMachine,
        governor: Governor,
        meter: PowerMeter | None = None,
        keep_trace: bool = True,
        telemetry: TelemetryRecorder | None = None,
        resilience: ResilienceConfig | None = None,
        injector: "FaultInjector | None" = None,
        adaptation: "AdaptationManager | None" = None,
    ):
        self.machine = machine
        self.governor = governor
        # A multicore package runs as one kernel lane per core.
        self._lanes = (
            machine.cores
            if isinstance(machine, MulticoreMachine)
            else (machine,)
        )
        lead = self._lanes[0].config
        meter = (
            meter
            if meter is not None
            else PowerMeter(
                interval_s=lead.tick_s,
                rng=np.random.default_rng(lead.seed + 1001),
            )
        )
        self._injector = injector
        if injector is not None and injector.active:
            meter = injector.wrap_meter(meter)
        self.meter = meter
        machine.add_power_sink(self.meter.accumulate)
        self._keep_trace = keep_trace
        self._telemetry = telemetry
        self._resilience = resilience
        self._adaptation = adaptation

    def run(
        self,
        workload: Workload,
        initial_pstate: PState | None = None,
        schedule: ConstraintSchedule | None = None,
        max_seconds: float = 600.0,
        threads: int | None = None,
        until_s: float = math.inf,
    ) -> RunResult:
        """Run ``workload`` to completion under the governor.

        On a :class:`~repro.multicore.machine.MulticoreMachine` the
        workload is split over ``threads`` cores (default: all of them)
        and the governor samples core 0 and actuates the package.

        ``until_s`` is a simulated-time horizon: the run ends at the
        first tick boundary at or past it, finished or not.  A run that
        passes ``max_seconds`` before the horizon raises
        :class:`~repro.errors.ExperimentError`.
        """
        machine = self.machine
        governor = self.governor
        governor.reset()
        start = (
            initial_pstate
            if initial_pstate is not None
            else machine.speedstep.table.fastest
        )
        if threads is None:
            machine.load(workload, initial_pstate=start)
        else:
            machine.load(workload, threads=threads, initial_pstate=start)
        # Governors needing more events than the two counters declare
        # event_groups and get a multiplexed sampler (one group per tick).
        tel = self._telemetry
        groups = getattr(governor, "event_groups", None)
        if groups:
            sampler = MultiplexedCounterSampler(machine.pmu, groups)
        else:
            sampler = CounterSampler(machine.pmu, governor.events)
        injector = self._injector
        injecting = injector is not None and injector.active
        driver = machine.speedstep
        if injecting:
            injector.set_clock(lambda: machine.now_s)
            injector.bind_telemetry(tel)
            sampler = injector.wrap_sampler(sampler)
            driver = injector.wrap_speedstep(machine.speedstep, machine.dvfs)
        rt = (
            _ResilienceRuntime(self._resilience, machine, tel)
            if self._resilience is not None
            else None
        )
        adapt = self._adaptation
        adapting = adapt is not None and adapt.engage(
            governor, tel, now_s=machine.now_s
        )
        sampler.start()
        self.meter.mark(f"{workload.name}:start")

        state = _RunState(
            machine=machine,
            lanes=self._lanes,
            governor=governor,
            meter=self.meter,
            sampler=sampler,
            driver=driver,
            schedule=schedule,
            rt=rt,
            injector=injector if injecting else None,
            adapt=adapt,
            workload_name=workload.name,
            max_seconds=max_seconds,
            until_s=until_s,
            keep_trace=self._keep_trace,
            injecting=injecting,
            adapting=adapting,
            sample_index=self.meter.sample_count,
        )
        return blockloop.run_fast(state, tel)


@dataclass
class _RunState:
    """The complete state of one in-flight run.

    Every object carrying loop state -- machine, meter, sampler, driver,
    governor, resilience runtime, fault injector, adaptation manager,
    constraint schedule and the loop accumulators -- is reachable from
    here; the kernel reads its inputs from it and writes the
    accumulators back before :func:`_finish_run` builds the result.
    """

    machine: Machine | MulticoreMachine
    #: The machines the kernel steps: the machine itself, or one per
    #: core of a multicore package.
    lanes: tuple[Machine, ...]
    governor: Governor
    meter: PowerMeter
    sampler: object
    driver: object
    schedule: ConstraintSchedule | None
    rt: _ResilienceRuntime | None
    injector: "FaultInjector | None"
    adapt: "AdaptationManager | None"
    workload_name: str
    max_seconds: float
    #: The simulated-time horizon (inf: run to completion).
    until_s: float
    keep_trace: bool
    injecting: bool
    adapting: bool
    sample_index: int
    instructions: float = 0.0
    true_energy: float = 0.0
    residency: Dict[float, float] = field(default_factory=dict)
    ticks: TickColumns = field(default_factory=TickColumns)


class _TickTelemetry:
    """The metrics and events of an observed run.

    Construction takes the metric handles (get-or-create by name) and
    emits ``RunStarted``.  The kernel calls :meth:`transition` for each
    actuated p-state change; :meth:`finish` folds the run's tick columns
    into the metrics in tick order -- the same values and float sums as
    observing each tick as it ran -- and emits the run's ``ticks``
    record.
    """

    def __init__(self, st: _RunState, tel: TelemetryRecorder):
        metrics = tel.metrics
        self._emit = tel.emit
        self._metrics = metrics
        self._ticks = metrics.counter("controller.ticks")
        self._transitions = metrics.counter("controller.transitions")
        self._violations = metrics.counter("controller.limit_violations")
        self._power = metrics.histogram("power.measured_w", POWER_BUCKETS_W)
        self._error = metrics.histogram(
            "projection.error_w", PROJECTION_ERROR_BUCKETS_W
        )
        tel.emit(
            RunStarted(
                time_s=st.machine.now_s,
                workload=st.workload_name,
                governor=st.governor.name,
            )
        )

    def transition(
        self, time_s: float, from_mhz: float, to_mhz: float
    ) -> None:
        """Count and publish one actuated p-state change."""
        self._transitions.inc()
        self._emit(
            PStateTransition(time_s=time_s, from_mhz=from_mhz, to_mhz=to_mhz)
        )

    def finish(self, st: _RunState) -> None:
        """Fold ``st``'s tick columns into the metrics; emit its record."""
        ticks = st.ticks
        measured = ticks.measured_power_w
        self._ticks.inc(len(measured))
        # Residency sums in tick order from each counter's value, the
        # float sums of one inc per tick, stored once per counter.
        counters: Dict[float, object] = {}
        totals: Dict[object, float] = {}
        for freq, seconds in zip(ticks.frequency_mhz, ticks.interval_s):
            counter = counters.get(freq)
            if counter is None:
                counter = counters[freq] = self._metrics.counter(
                    f"pstate.residency_s.{freq:.0f}"
                )
                totals.setdefault(counter, counter.value)
            totals[counter] += seconds
        for counter, total in totals.items():
            counter.set_total(total)
        self._power.observe_many(measured)
        # A NaN limit (none) is never exceeded.
        self._violations.inc(
            sum(watts > limit for watts, limit in zip(measured, ticks.limit_w))
        )
        # The estimate made at tick t predicted tick t + 1's power.
        self._error.observe_many(
            estimate - watts
            for estimate, watts in zip(ticks.estimate_w, measured[1:])
            if estimate == estimate
        )
        self._emit(
            ticks.event(st.machine.now_s, st.workload_name, st.governor.name)
        )


def _finish_run(
    st: _RunState, tel, observer: _TickTelemetry | None
) -> RunResult:
    """Close out a completed run: flush the meter, build the result.

    Reads only the ``_RunState`` fields the kernel synced at loop exit;
    the trace and an observed run's metrics and ``ticks`` record come
    from its tick columns.
    """
    machine = st.machine
    governor = st.governor
    meter = st.meter
    rt = st.rt
    workload_name = st.workload_name
    instructions = st.instructions

    meter.flush()
    meter.mark(f"{workload_name}:end")
    samples = meter.samples_between(
        f"{workload_name}:start", f"{workload_name}:end"
    )
    measured_energy = meter.energy_j(samples)
    if observer is not None:
        observer.finish(st)
        metrics = tel.metrics
        metrics.gauge("run.duration_s").set(machine.now_s)
        metrics.gauge("run.instructions").set(instructions)
        metrics.gauge("run.measured_energy_j").set(measured_energy)
        tel.emit(
            RunFinished(
                time_s=machine.now_s,
                workload=workload_name,
                governor=governor.name,
                duration_s=machine.now_s,
                instructions=instructions,
                measured_energy_j=measured_energy,
                transitions=machine.dvfs.transition_count,
            )
        )
    return RunResult(
        workload=workload_name,
        governor=governor.name,
        duration_s=machine.now_s,
        instructions=instructions,
        measured_energy_j=measured_energy,
        true_energy_j=st.true_energy,
        samples=samples,
        trace=st.ticks.trace() if st.keep_trace else (),
        residency_s=st.residency,
        transitions=machine.dvfs.transition_count,
        degraded=rt.degraded if rt is not None else False,
        recoveries=dict(rt.recoveries) if rt is not None else {},
    )
