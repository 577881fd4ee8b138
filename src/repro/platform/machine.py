"""The assembled simulated machine: Pentium M 755 + instrumentation.

:class:`Machine` wires together the p-state table, DVFS controller,
MSR/PMU/SpeedStep drivers, pipeline model, ground-truth power synthesis
and an AR(1) activity-jitter process, and advances a loaded workload in
time steps.  Each step:

1. charges any p-state-transition dead time (no instructions retire,
   base power is burned),
2. evolves the activity jitter (one innovation per step, i.e. at the
   10 ms granularity of the paper's sampling),
3. resolves per-cycle rates for the current phase at the current
   p-state, splitting the step at phase boundaries and at workload
   completion so per-phase accounting is exact,
4. advances the PMU counters and reports instantaneous power segments
   (the runner feeds them to the :class:`~repro.measurement.power_meter.
   PowerMeter`).

The governor layer never calls the pipeline model directly: it reads the
PMU through driver snapshots and actuates through the SpeedStep driver,
the same separation as the paper's user-level prototype over kernel
drivers.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from repro.acpi.pstates import PState, PStateTable, pentium_m_755_table
from repro.drivers.msr import MSRFile
from repro.drivers.pmu import PMU
from repro.drivers.speedstep import SpeedStepDriver
from repro.errors import ReproError, WorkloadError
from repro.platform.caches import MemoryTiming, PENTIUM_M_755_TIMING
from repro.platform.dvfs import DvfsController
from repro.platform.pipeline import ResolvedRates, resolve_rates
from repro.platform.power import (
    PENTIUM_M_755_POWER,
    PowerModelConstants,
    ground_truth_power,
    idle_power,
)
from repro.platform.thermal import ThermalModel
from repro.platform.throttling import ThrottleController
from repro.workloads.base import PhaseCursor, Workload

@dataclass(frozen=True)
class MachineConfig:
    """Configuration of the simulated platform.

    ``tick_s`` is the machine's base time step and equals the paper's
    10 ms sampling interval by default; the governor acts once per tick.
    """

    table: PStateTable = field(default_factory=pentium_m_755_table)
    timing: MemoryTiming = PENTIUM_M_755_TIMING
    power: PowerModelConstants = PENTIUM_M_755_POWER
    tick_s: float = 0.010
    seed: int = 0
    #: Optional package thermal model (None = isothermal, the paper's
    #: actively-cooled setting).  The machine deep-copies it so several
    #: machines can share one config.
    thermal: ThermalModel | None = None


@dataclass(frozen=True)
class TickRecord:
    """What happened during one machine tick (for analysis, not control)."""

    time_s: float  #: tick end time
    duration_s: float
    pstate: PState
    #: Name of the phase that consumed the most time within the tick.
    phase_name: str
    instructions: float
    cycles: float
    mean_power_w: float  #: ground-truth mean power over the tick
    energy_j: float
    jitter: float
    rates: ResolvedRates | None  #: rates of the tick's last segment
    #: Clock-modulation duty cycle in effect (1.0 = unthrottled).
    duty: float = 1.0
    #: Junction temperature at tick end (None when running isothermal).
    temperature_c: float | None = None


class Machine:
    """Simulated Pentium M 755 platform under a loaded workload."""

    def __init__(self, config: MachineConfig | None = None):
        self.config = config if config is not None else MachineConfig()
        self.msr = MSRFile()
        self.pmu = PMU(self.msr)
        self.dvfs = DvfsController(self.config.table)
        self.speedstep = SpeedStepDriver(self.msr, self.dvfs)
        self.throttle = ThrottleController(self.msr)
        self.thermal = (
            copy.deepcopy(self.config.thermal)
            if self.config.thermal is not None
            else None
        )
        self._rng = np.random.default_rng(self.config.seed)
        self._cursor: PhaseCursor | None = None
        self._time_s = 0.0
        self._jitter_log = 0.0
        self._charged_dead_time_s = 0.0
        self._power_sinks: List[Callable[[float, float], None]] = []
        self._timing: MemoryTiming = self.config.timing

    # -- lifecycle -------------------------------------------------------------

    def load(self, workload: Workload, initial_pstate: PState | None = None) -> None:
        """Install ``workload`` and reset execution state.

        The PMU configuration is preserved (the paper's monitoring driver
        stays armed across runs); time and the jitter process restart.
        """
        self._cursor = workload.cursor()
        self._time_s = 0.0
        self._jitter_log = 0.0
        self._timing = self.config.timing
        self.dvfs.reset(initial_pstate)
        self.throttle.reset()
        if self.thermal is not None:
            self.thermal.reset()
        self._charged_dead_time_s = self.dvfs.total_dead_time_s

    def swap_workload(self, workload: Workload) -> None:
        """Replace the instruction stream without resetting execution state.

        Unlike :meth:`load`, time, the jitter process, the DVFS state and
        dead-time accounting all continue -- this is the online
        thread-reconfiguration hook: when a multicore run changes its
        thread count mid-flight the remaining instruction budget is
        re-split and swapped in on each core.
        """
        self._cursor = workload.cursor()

    def add_power_sink(self, sink: Callable[[float, float], None]) -> None:
        """Register a (power_watts, duration_s) consumer (the power meter)."""
        self._power_sinks.append(sink)

    def set_effective_timing(self, timing: MemoryTiming) -> None:
        """Override the memory timing the pipeline model resolves against.

        This is the shared-resource contention hook: a
        :class:`~repro.multicore.machine.MulticoreMachine` inflates each
        core's effective miss latency / bandwidth share per tick from the
        other cores' demand.  Passing ``config.timing`` (the default)
        restores the uncontended single-core behaviour exactly --
        :meth:`load` also resets to it.
        """
        self._timing = timing

    @property
    def effective_timing(self) -> MemoryTiming:
        """The memory timing currently applied (contention-adjusted)."""
        return self._timing

    # -- state -----------------------------------------------------------------

    @property
    def workload(self) -> Workload:
        """The loaded workload; raises if none is loaded."""
        return self._require_cursor().workload

    @property
    def finished(self) -> bool:
        """True once the loaded workload has retired its full budget."""
        return self._require_cursor().finished

    @property
    def now_s(self) -> float:
        """Simulated wall-clock time since :meth:`load`."""
        return self._time_s

    @property
    def retired_instructions(self) -> float:
        """Instructions retired since :meth:`load`."""
        return self._require_cursor().retired

    @property
    def current_pstate(self) -> PState:
        """The active p-state."""
        return self.dvfs.current

    def peek_rates(
        self,
        pstate: PState | None = None,
        timing: MemoryTiming | None = None,
    ) -> ResolvedRates:
        """Ground-truth rates for the current phase at the current p-state.

        For analysis and oracle baselines only; governors must use the
        PMU path.  ``pstate`` / ``timing`` override the active p-state or
        the (possibly contention-adjusted) memory timing -- the multicore
        contention model uses ``timing=config.timing`` to read each
        core's *uncontended* bus demand before applying pressure.
        """
        cursor = self._require_cursor()
        return resolve_rates(
            cursor.current_phase,
            pstate if pstate is not None else self.dvfs.current,
            timing if timing is not None else self._timing,
            jitter=self._current_jitter(),
        )

    def oracle_power(self, pstate: PState) -> float:
        """Ground-truth power the current phase would burn at ``pstate``.

        Analysis-only hook for oracle baselines (the information no real
        platform exposes); see
        :class:`repro.core.governors.oracle.OraclePerformanceMaximizer`.
        """
        cursor = self._require_cursor()
        rates = resolve_rates(
            cursor.current_phase,
            pstate,
            self._timing,
            jitter=self._current_jitter(),
        )
        temperature = (
            self.thermal.temperature_c if self.thermal is not None else None
        )
        return ground_truth_power(
            pstate, rates.events, self.config.power, temperature_c=temperature
        )

    # -- stepping ----------------------------------------------------------------

    def step(self, duration_s: float | None = None) -> TickRecord:
        """Advance execution by one tick (default ``config.tick_s``).

        Returns a :class:`TickRecord`.  If the workload completes inside
        the tick, the record's ``duration_s`` is correspondingly shorter;
        callers detect completion via :attr:`finished`.
        """
        cursor = self._require_cursor()
        if cursor.finished:
            raise ReproError("workload already finished; load a new one")
        dt = self.config.tick_s if duration_s is None else duration_s
        if dt <= 0:
            raise ReproError("step duration must be positive")

        start_time = self._time_s
        energy = 0.0
        instructions = 0.0
        cycles = 0.0
        elapsed = 0.0
        last_rates: ResolvedRates | None = None
        phase_time: dict[str, float] = {}

        # 1. charge p-state transition dead time accrued since last step.
        dead = self.dvfs.total_dead_time_s - self._charged_dead_time_s
        if dead > 0:
            dead = min(dead, dt)
            self._charged_dead_time_s += dead
            power = idle_power(self.dvfs.current, self.config.power)
            energy += power * dead
            self._emit_power(power, dead)
            elapsed += dead

        # 2. evolve the AR(1) jitter once per tick.
        jitter = self._advance_jitter(cursor)

        # 3. execute, splitting at phase boundaries / completion.  Clock
        # modulation scales throughput, unhalted cycles and *dynamic*
        # power by the duty cycle; leakage persists at full voltage.
        duty = self.throttle.duty
        while elapsed < dt - 1e-12 and not cursor.finished:
            phase = cursor.current_phase
            rates = resolve_rates(
                phase, self.dvfs.current, self._timing, jitter=jitter
            )
            last_rates = rates
            budget = cursor.instructions_until_boundary()
            effective_ips = rates.ips * duty
            seg_time = min(dt - elapsed, budget / effective_ips)
            seg_instr = min(budget, effective_ips * seg_time)
            seg_cycles = seg_time * rates.frequency_mhz * 1e6 * duty

            cursor.advance(seg_instr)
            self.pmu.tick(seg_cycles, rates.events)
            temperature = (
                self.thermal.temperature_c if self.thermal is not None else None
            )
            full_power = ground_truth_power(
                self.dvfs.current, rates.events, self.config.power,
                temperature_c=temperature,
            )
            leakage = self.config.power.leakage.power(
                self.dvfs.current.voltage, temperature
            )
            power = (full_power - leakage) * duty + leakage
            if self.thermal is not None:
                self.thermal.advance(power, seg_time)
            energy += power * seg_time
            self._emit_power(power, seg_time)

            instructions += seg_instr
            cycles += seg_cycles
            elapsed += seg_time
            phase_time[phase.name] = phase_time.get(phase.name, 0.0) + seg_time

        self._time_s = start_time + elapsed
        mean_power = energy / elapsed if elapsed > 0 else 0.0
        dominant_phase = (
            max(phase_time, key=phase_time.get)
            if phase_time
            else cursor.current_phase.name
        )
        return TickRecord(
            time_s=self._time_s,
            duration_s=elapsed,
            pstate=self.dvfs.current,
            phase_name=dominant_phase,
            instructions=instructions,
            cycles=cycles,
            mean_power_w=mean_power,
            energy_j=energy,
            jitter=jitter,
            rates=last_rates,
            duty=duty,
            temperature_c=(
                self.thermal.temperature_c if self.thermal is not None else None
            ),
        )

    def run_to_completion(self, max_seconds: float = 3600.0) -> list[TickRecord]:
        """Run the loaded workload at the current p-state with no governor."""
        records = []
        while not self.finished:
            if self._time_s > max_seconds:
                raise ReproError(
                    f"workload did not finish within {max_seconds}s"
                )
            records.append(self.step())
        return records

    # -- internals ----------------------------------------------------------------

    def _require_cursor(self) -> PhaseCursor:
        if self._cursor is None:
            raise WorkloadError("no workload loaded; call Machine.load first")
        return self._cursor

    def _emit_power(self, power_watts: float, duration_s: float) -> None:
        for sink in self._power_sinks:
            sink(power_watts, duration_s)

    def _current_jitter(self) -> float:
        sigma = self._require_cursor().current_phase.activity_jitter
        return math.exp(self._jitter_log - 0.5 * sigma * sigma)

    def _advance_jitter(self, cursor: PhaseCursor) -> float:
        phase = cursor.current_phase
        rho = phase.jitter_corr
        sigma = phase.activity_jitter
        if sigma == 0.0:
            self._jitter_log = 0.0
            return 1.0
        innovation = self._rng.normal(0.0, sigma * math.sqrt(1.0 - rho * rho))
        self._jitter_log = rho * self._jitter_log + innovation
        # lognormal with mean ~1 (Ito correction on the stationary variance)
        return math.exp(self._jitter_log - 0.5 * sigma * sigma)
