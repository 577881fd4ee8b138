"""The assembled simulated machine: Pentium M 755 + instrumentation.

:class:`Machine` wires together the p-state table, DVFS controller,
MSR/PMU/SpeedStep drivers, throttle, optional thermal model, the
loaded workload's phase cursor and the state of its AR(1) activity
jitter.  It holds the platform's state; it does not advance it.  Time
advances in one place, the fused tick kernel
(:func:`repro.core.blockloop.run_fast`), which every
:class:`~repro.core.controller.PowerManagementController` run enters.
Each tick the kernel charges p-state-transition dead time, draws one
jitter innovation, splits the tick at phase boundaries and at workload
completion, advances the PMU counters and feeds the power segments to
the machine's power sinks (the meter); ``tests/platform/golden_ticks.json``
freezes that physics tick by tick.

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
from repro.errors import WorkloadError
from repro.platform.caches import MemoryTiming, PENTIUM_M_755_TIMING
from repro.platform.dvfs import DvfsController
from repro.platform.pipeline import ResolvedRates, resolve_rates
from repro.platform.power import (
    PENTIUM_M_755_POWER,
    PowerModelConstants,
    ground_truth_power,
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

    # -- lifecycle -------------------------------------------------------------

    def load(self, workload: Workload, initial_pstate: PState | None = None) -> None:
        """Install ``workload`` and reset execution state.

        The PMU configuration is preserved (the paper's monitoring driver
        stays armed across runs); time and the jitter process restart.
        """
        self._cursor = workload.cursor()
        self._time_s = 0.0
        self._jitter_log = 0.0
        self.dvfs.reset(initial_pstate)
        self.throttle.reset()
        if self.thermal is not None:
            self.thermal.reset()
        self._charged_dead_time_s = self.dvfs.total_dead_time_s

    def add_power_sink(self, sink: Callable[[float, float], None]) -> None:
        """Register a (power_watts, duration_s) consumer (the power meter)."""
        self._power_sinks.append(sink)

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

    def peek_rates(self, pstate: PState | None = None) -> ResolvedRates:
        """Ground-truth rates for the current phase at the current p-state.

        For analysis and oracle baselines only; governors must use the
        PMU path.  ``pstate`` overrides the active p-state.
        """
        cursor = self._require_cursor()
        return resolve_rates(
            cursor.current_phase,
            pstate if pstate is not None else self.dvfs.current,
            self.config.timing,
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
            self.config.timing,
            jitter=self._current_jitter(),
        )
        temperature = (
            self.thermal.temperature_c if self.thermal is not None else None
        )
        return ground_truth_power(
            pstate, rates.events, self.config.power, temperature_c=temperature
        )

    # -- internals ----------------------------------------------------------------

    def _require_cursor(self) -> PhaseCursor:
        if self._cursor is None:
            raise WorkloadError("no workload loaded; call Machine.load first")
        return self._cursor

    def _current_jitter(self) -> float:
        sigma = self._require_cursor().current_phase.activity_jitter
        return math.exp(self._jitter_log - 0.5 * sigma * sigma)
