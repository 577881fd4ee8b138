"""N-core machine: per-core pipeline models behind shared contention.

:class:`MulticoreMachine` composes N full single-core
:class:`~repro.platform.machine.Machine` instances -- each with its own
MSR file, PMU, DVFS controller and jitter stream -- sharing one package
p-state domain (the Pentium M-era shared PLL) and one memory bus.  It
holds state only: a :class:`~repro.core.controller.
PowerManagementController` runs it as N per-core lanes of the one tick
kernel (:func:`repro.core.blockloop.run_fast`), which reads every
core's *uncontended* bus demand before each tick and applies the
:class:`~repro.multicore.contention.ContentionModel`, so memory-bound
neighbours inflate a core's miss latency and shrink its bandwidth share
exactly as shared-FSB hardware would.

Core 0 is seeded with exactly ``config.machine.seed`` and a 1-core
machine is one lane (the model is self-excluding), so a 1-core
``MulticoreMachine`` run is bit-identical to a single-core ``Machine``
run -- the regression gate for everything in this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List

from repro.acpi.pstates import PState
from repro.drivers.pmu import PMU
from repro.drivers.speedstep import DomainSpeedStepDriver
from repro.errors import ExperimentError, WorkloadError
from repro.multicore.contention import ContentionModel
from repro.multicore.workload import split_workload
from repro.platform.machine import Machine, MachineConfig
from repro.workloads.base import Workload

# Seed stride between cores: core i draws from an independent jitter
# stream seeded config.machine.seed + i * stride.  Core 0's offset must
# stay 0 for single-core bit-identity.
CORE_SEED_STRIDE = 101


@dataclass(frozen=True)
class MulticoreConfig:
    """Configuration of an N-core machine."""

    n_cores: int = 2
    machine: MachineConfig = field(default_factory=MachineConfig)
    contention: ContentionModel = field(default_factory=ContentionModel)

    def __post_init__(self) -> None:
        if not isinstance(self.n_cores, int) or self.n_cores < 1:
            raise ExperimentError(
                f"n_cores must be a positive integer, got {self.n_cores!r}"
            )


class PackageDvfs:
    """The package p-state domain seen as one DVFS controller.

    Dead time charged to it (a stalled or retried transition) stalls
    every core; its p-state is the lead core's.
    """

    def __init__(self, cores: tuple[Machine, ...]):
        self._dvfs = tuple(core.dvfs for core in cores)

    @property
    def current(self) -> PState:
        """The package p-state (the lead core's)."""
        return self._dvfs[0].current

    @property
    def transition_count(self) -> int:
        """Total DVFS transitions across all cores."""
        return sum(dvfs.transition_count for dvfs in self._dvfs)

    def charge_dead_time(self, seconds: float) -> None:
        """Charge ``seconds`` of dead time to every core."""
        for dvfs in self._dvfs:
            dvfs.charge_dead_time(seconds)


class MulticoreMachine:
    """Simulated N-core platform sharing an L2/DRAM bandwidth ceiling."""

    def __init__(self, config: MulticoreConfig | None = None):
        self.config = config if config is not None else MulticoreConfig()
        base = self.config.machine
        self.cores: tuple[Machine, ...] = tuple(
            Machine(replace(base, seed=base.seed + CORE_SEED_STRIDE * i))
            for i in range(self.config.n_cores)
        )
        self.speedstep = DomainSpeedStepDriver(
            [core.speedstep for core in self.cores]
        )
        self.dvfs = PackageDvfs(self.cores)
        self._threads = self.config.n_cores
        self._workload: Workload | None = None
        self._time_s = 0.0
        #: Peak advertised bus demand over the ceiling, per tick, since
        #: :meth:`load` (the kernel updates it).
        self.peak_bus_utilization = 0.0
        self._power_sinks: List[Callable[[float, float], None]] = []
        if self.config.n_cores == 1:
            # Single core: the meter must see the core's own power
            # segment stream (dead-time splits included) bit-identically,
            # so sinks attach straight to the core.
            self._power_sinks = self.cores[0]._power_sinks

    # -- lifecycle -------------------------------------------------------------

    def load(
        self,
        workload: Workload,
        threads: int | None = None,
        initial_pstate: PState | None = None,
    ) -> None:
        """Split ``workload`` evenly over ``threads`` cores and reset
        execution.

        Cores beyond ``threads`` stay unloaded: they burn idle power at
        the package p-state, which is what makes low-thread-count
        configurations pay for dark silicon in the energy accounting.
        """
        threads = self.config.n_cores if threads is None else threads
        if not isinstance(threads, int) or not 1 <= threads <= self.config.n_cores:
            raise WorkloadError(
                f"threads must be in 1..{self.config.n_cores} "
                f"(n_cores), got {threads!r}"
            )
        self._threads = threads
        self._workload = workload
        shards = split_workload(workload, threads)
        for i, core in enumerate(self.cores):
            if i < threads:
                core.load(shards[i], initial_pstate=initial_pstate)
            else:
                core.dvfs.reset(initial_pstate)
                core.throttle.reset()
        self._time_s = 0.0
        self.peak_bus_utilization = 0.0

    def add_power_sink(self, sink: Callable[[float, float], None]) -> None:
        """Register a (power_watts, duration_s) consumer (the power meter)."""
        self._power_sinks.append(sink)

    # -- state -----------------------------------------------------------------

    @property
    def n_cores(self) -> int:
        """Number of physical cores."""
        return self.config.n_cores

    @property
    def threads(self) -> int:
        """Active thread count of the loaded workload."""
        return self._threads

    @property
    def workload(self) -> Workload:
        """The (unsplit) loaded workload."""
        if self._workload is None:
            raise WorkloadError(
                "no workload loaded; call MulticoreMachine.load first"
            )
        return self._workload

    @property
    def pmu(self) -> PMU:
        """The lead core's PMU -- the one the governor samples."""
        return self.cores[0].pmu

    @property
    def now_s(self) -> float:
        """Simulated wall-clock time since :meth:`load`."""
        if self.config.n_cores == 1:
            return self.cores[0].now_s
        return self._time_s

    @property
    def finished(self) -> bool:
        """True once every active shard has retired its budget."""
        return all(
            core.finished for core in self.cores[: self._threads]
        )

    @property
    def retired_instructions(self) -> float:
        """Instructions retired across all cores since :meth:`load`."""
        return sum(
            core.retired_instructions for core in self.cores[: self._threads]
        )

    @property
    def current_pstate(self) -> PState:
        """The package p-state."""
        return self.dvfs.current
