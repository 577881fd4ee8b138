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
this module builds its inputs (:class:`_RunState`) and its result.

When a :class:`~repro.telemetry.TelemetryRecorder` is supplied the loop
is fully observable: every sample / decision / transition / tick is
published on the event bus, and the metrics registry accumulates tick
counts, p-state residency, transitions, power-limit violations and the
power-projection error distribution.  That per-tick block lives in one
helper (:class:`_TickTelemetry`) the kernel calls once per tick.
Wall-clock spans are per cell (the execution engine's root ``run``
span), never per tick.  With ``telemetry=None`` (the default) every
instrumentation block is skipped behind a single pre-computed branch,
so an uninstrumented run costs the same as before the subsystem existed.

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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

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
from repro.measurement.power_meter import PowerMeter, PowerSample
from repro.platform.machine import Machine
from repro.telemetry.bus import (
    DecisionMade,
    DegradedModeEntered,
    FaultRecovered,
    PStateTransition,
    RunFinished,
    RunStarted,
    TickCompleted,
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
    samples: tuple[PowerSample, ...]
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
        values = [s.watts for s in self.samples]
        out: list[tuple[float, float]] = []
        acc = 0.0
        for i, sample in enumerate(self.samples):
            acc += values[i]
            if i >= window:
                acc -= values[i - window]
            if i >= window - 1:
                out.append((sample.time_s, acc / window))
        return tuple(out)

    def violation_fraction(self, limit_w: float, window: int = 10) -> float:
        """Fraction of run time the windowed power exceeds ``limit_w``."""
        series = self.moving_average_power(window)
        if not series:
            return 0.0
        over = sum(1 for _, watts in series if watts > limit_w + 1e-9)
        return over / len(series)


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
        table = machine.config.table
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
        machine: Machine,
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
        meter = (
            meter
            if meter is not None
            else PowerMeter(
                interval_s=machine.config.tick_s,
                rng=np.random.default_rng(machine.config.seed + 1001),
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
    ) -> RunResult:
        """Run ``workload`` to completion under the governor."""
        machine = self.machine
        governor = self.governor
        governor.reset()
        start = initial_pstate if initial_pstate is not None else machine.config.table.fastest
        machine.load(workload, initial_pstate=start)
        # Governors needing more events than the two counters declare
        # event_groups and get a multiplexed sampler (one group per tick).
        tel = self._telemetry
        groups = getattr(governor, "event_groups", None)
        if groups:
            sampler = MultiplexedCounterSampler(
                machine.pmu, groups, telemetry=tel
            )
        else:
            sampler = CounterSampler(
                machine.pmu, governor.events, telemetry=tel
            )
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
            keep_trace=self._keep_trace,
            injecting=injecting,
            adapting=adapting,
            sample_index=len(self.meter.samples),
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

    machine: Machine
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
    keep_trace: bool
    injecting: bool
    adapting: bool
    sample_index: int
    instructions: float = 0.0
    true_energy: float = 0.0
    last_estimate_w: float | None = None
    residency: Dict[float, float] = field(default_factory=dict)
    trace: List[TraceRow] = field(default_factory=list)


class _TickTelemetry:
    """The per-tick metrics and events of an observed run.

    The kernel calls :meth:`tick` once per tick, after actuation.
    Construction takes the metric handles get-or-create by name and
    emits ``RunStarted``.

    The power estimate for the next tick is kept in
    ``st.last_estimate_w``.
    """

    def __init__(self, st: _RunState, tel: TelemetryRecorder):
        governor = st.governor
        metrics = tel.metrics
        self._st = st
        self._governor = governor
        self._emit = tel.emit
        self._metrics = metrics
        self._ticks = metrics.counter("controller.ticks")
        self._transitions = metrics.counter("controller.transitions")
        self._violations = metrics.counter("controller.limit_violations")
        self._power = metrics.histogram("power.measured_w", POWER_BUCKETS_W)
        self._error = metrics.histogram(
            "projection.error_w", PROJECTION_ERROR_BUCKETS_W
        )
        self._residency: Dict[float, object] = {}
        self._can_estimate = hasattr(governor, "estimate_power")
        tel.emit(
            RunStarted(
                time_s=st.machine.now_s,
                workload=st.workload_name,
                governor=governor.name,
            )
        )

    def tick(
        self,
        time_s: float,
        freq: float,
        duration_s: float,
        measured: float,
        true_power_w: float,
        instructions: float,
        duty: float,
        temperature: float | None,
        current: PState,
        target: PState,
        changed: bool,
        sample: CounterSample | None,
    ) -> None:
        """Record one tick that ran at ``current`` and chose ``target``."""
        governor = self._governor
        emit = self._emit
        st = self._st
        self._ticks.inc()
        freq_counter = self._residency.get(freq)
        if freq_counter is None:
            freq_counter = self._residency[freq] = self._metrics.counter(
                f"pstate.residency_s.{freq:.0f}"
            )
        freq_counter.inc(duration_s)
        self._power.observe(measured)
        limit = getattr(governor, "power_limit_w", None)
        if limit is not None and measured > limit:
            self._violations.inc()
        # The estimate made last tick predicted this tick's power.
        if st.last_estimate_w is not None:
            self._error.observe(st.last_estimate_w - measured)
        emit(
            DecisionMade(
                time_s=time_s,
                governor=governor.name,
                current_mhz=current.frequency_mhz,
                target_mhz=target.frequency_mhz,
            )
        )
        if changed:
            self._transitions.inc()
            emit(
                PStateTransition(
                    time_s=time_s,
                    from_mhz=current.frequency_mhz,
                    to_mhz=target.frequency_mhz,
                )
            )
        if self._can_estimate and sample is not None:
            st.last_estimate_w = governor.estimate_power(
                sample, current, target
            )
        emit(
            TickCompleted(
                time_s=time_s,
                frequency_mhz=freq,
                measured_power_w=measured,
                true_power_w=true_power_w,
                instructions=instructions,
                duty=duty,
                temperature_c=temperature,
            )
        )


def _finish_run(st: _RunState, tel) -> RunResult:
    """Close out a completed run: flush the meter, build the result.

    Reads only the ``_RunState`` fields the kernel synced at loop exit.
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
    if tel is not None and tel.enabled:
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
        trace=tuple(st.trace),
        residency_s=st.residency,
        transitions=machine.dvfs.transition_count,
        degraded=rt.degraded if rt is not None else False,
        recoveries=dict(rt.recoveries) if rt is not None else {},
    )
