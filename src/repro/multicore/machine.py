"""N-core machine: per-core pipeline models behind shared contention.

:class:`MulticoreMachine` composes N full single-core
:class:`~repro.platform.machine.Machine` instances -- each with its own
MSR file, PMU, DVFS controller and jitter stream -- and advances them in
lock-step ticks.  Before each tick it reads every core's *uncontended*
bus demand and applies the :class:`~repro.multicore.contention.
ContentionModel` through the per-core ``set_effective_timing`` hook, so
memory-bound neighbours inflate a core's miss latency and shrink its
bandwidth share exactly as shared-FSB hardware would.

Core 0 is seeded with exactly ``config.machine.seed`` and a 1-core
machine applies no contention (the model is self-excluding), so a 1-core
``MulticoreMachine`` is bit-identical to the single-core ``Machine`` --
the regression gate for everything in this package.

P-states are actuated per *domain* through a
:class:`~repro.drivers.speedstep.DomainSpeedStepDriver`: ``"package"``
(default, the Pentium M-era shared PLL) puts all cores in domain 0;
``"per-core"`` gives every core its own domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Sequence

from repro.acpi.pstates import PState
from repro.drivers.speedstep import DomainSpeedStepDriver
from repro.errors import ExperimentError, WorkloadError
from repro.multicore.contention import ContentionModel
from repro.multicore.workload import split_workload
from repro.platform.machine import Machine, MachineConfig, TickRecord
from repro.platform.power import idle_power
from repro.workloads.base import Workload

PSTATE_DOMAIN_MODES = ("package", "per-core")

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
    pstate_domains: str = "package"

    def __post_init__(self) -> None:
        if not isinstance(self.n_cores, int) or self.n_cores < 1:
            raise ExperimentError(
                f"n_cores must be a positive integer, got {self.n_cores!r}"
            )
        if self.pstate_domains not in PSTATE_DOMAIN_MODES:
            raise ExperimentError(
                f"unknown pstate_domains {self.pstate_domains!r}; "
                f"valid modes: {', '.join(PSTATE_DOMAIN_MODES)}"
            )


@dataclass(frozen=True)
class MulticoreTick:
    """One lock-step tick of the whole package."""

    time_s: float
    duration_s: float
    energy_j: float
    power_w: float
    instructions: float
    core_records: tuple[TickRecord | None, ...]
    bus_utilization: float


class MulticoreMachine:
    """Simulated N-core platform sharing an L2/DRAM bandwidth ceiling."""

    def __init__(self, config: MulticoreConfig | None = None):
        self.config = config if config is not None else MulticoreConfig()
        base = self.config.machine
        self.cores: tuple[Machine, ...] = tuple(
            Machine(replace(base, seed=base.seed + CORE_SEED_STRIDE * i))
            for i in range(self.config.n_cores)
        )
        if self.config.pstate_domains == "package":
            self.domains: tuple[tuple[int, ...], ...] = (
                tuple(range(self.config.n_cores)),
            )
        else:
            self.domains = tuple((i,) for i in range(self.config.n_cores))
        self.speedstep = DomainSpeedStepDriver([
            [self.cores[i].speedstep for i in group] for group in self.domains
        ])
        self._threads = self.config.n_cores
        self._serial_fraction = 0.0
        self._sync_overhead = 0.0
        self._workload: Workload | None = None
        self._time_s = 0.0
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
        serial_fraction: float = 0.0,
        sync_overhead: float = 0.0,
        initial_pstate: PState | None = None,
    ) -> None:
        """Split ``workload`` over ``threads`` cores and reset execution.

        Cores beyond ``threads`` stay unloaded: they burn idle power at
        the initial p-state (their domain still actuates them), which is
        what makes low-thread-count configurations pay for dark silicon
        in the energy accounting.
        """
        threads = self.config.n_cores if threads is None else threads
        if not isinstance(threads, int) or not 1 <= threads <= self.config.n_cores:
            raise WorkloadError(
                f"threads must be in 1..{self.config.n_cores} "
                f"(n_cores), got {threads!r}"
            )
        self._threads = threads
        self._serial_fraction = serial_fraction
        self._sync_overhead = sync_overhead
        self._workload = workload
        shards = split_workload(
            workload, threads,
            serial_fraction=serial_fraction, sync_overhead=sync_overhead,
        )
        for i, core in enumerate(self.cores):
            if i < threads:
                core.load(shards[i], initial_pstate=initial_pstate)
            else:
                core.dvfs.reset(initial_pstate)
                core.throttle.reset()
        self._time_s = 0.0

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
        """Domain-0 active p-state (the package p-state when shared)."""
        return self.cores[0].current_pstate

    @property
    def transition_count(self) -> int:
        """Total DVFS transitions across all cores."""
        return sum(core.dvfs.transition_count for core in self.cores)

    def lead_core(self, domain: int) -> Machine:
        """The first core of ``domain`` -- the one its governor samples."""
        return self.cores[self.domains[domain][0]]

    def peek_rates(self, pstate=None, timing=None):
        """Domain-0 lead core's projected rates (same hook as ``Machine``).

        The package-level projection entry point: governors sample the
        lead core, so analysis peeks at the same core.  Per-core peeks
        go through ``machine.cores[i].peek_rates`` directly.
        """
        return self.cores[0].peek_rates(pstate=pstate, timing=timing)

    def set_effective_timing(self, timing) -> None:
        """Override every core's memory timing (same hook as ``Machine``).

        Note the contention model re-installs per-core effective timing
        for *active* cores at each ``step``, so this primarily affects
        idle cores and direct per-core stepping between package ticks.
        """
        for core in self.cores:
            core.set_effective_timing(timing)

    def swap_workload(self, workload: Workload) -> None:
        """Replace the instruction stream without resetting run state.

        Splits ``workload`` over the currently active thread count and
        swaps a shard into each active core, preserving time, jitter,
        DVFS and dead-time accounting (the online-reconfiguration
        contract of :meth:`Machine.swap_workload`).
        """
        self._workload = workload
        shards = split_workload(
            workload, self._threads,
            serial_fraction=self._serial_fraction,
            sync_overhead=self._sync_overhead,
        )
        for i in range(self._threads):
            self.cores[i].swap_workload(shards[i])

    def resplit(self, threads: int) -> None:
        """Re-split the *remaining* instruction budget over ``threads``.

        The online thread-reconfiguration hook for
        :class:`~repro.core.governors.threads_freq.ThreadsFreqGovernor`:
        pools the un-retired instructions of every active shard and
        swaps freshly split shards in without resetting time, jitter or
        DVFS state.  Phase alignment restarts from the shard cursor's
        origin -- an accepted approximation for an online heuristic.
        """
        if not isinstance(threads, int) or not 1 <= threads <= self.config.n_cores:
            raise WorkloadError(
                f"threads must be in 1..{self.config.n_cores} "
                f"(n_cores), got {threads!r}"
            )
        if threads == self._threads:
            return
        remaining = sum(
            core.workload.total_instructions - core.retired_instructions
            for core in self.cores[: self._threads]
            if not core.finished
        )
        if remaining <= 0:
            return
        pooled = replace(self.workload, total_instructions=remaining)
        shards = split_workload(
            pooled, threads,
            serial_fraction=self._serial_fraction,
            sync_overhead=self._sync_overhead,
        )
        pstate = self.current_pstate
        for i, core in enumerate(self.cores):
            if i < threads:
                if i < self._threads:
                    core.swap_workload(shards[i])
                else:
                    # A previously idle core joins: full load, then keep
                    # the package p-state it was parked at.
                    core.load(shards[i], initial_pstate=pstate)
            elif i < self._threads:
                # A core drops out: park it (its unretired work was pooled).
                core.swap_workload(replace(
                    shards[0], name=f"{self._workload.name}[parked:{i}]",
                    total_instructions=1e-6,
                ))
        self._threads = threads

    # -- stepping ----------------------------------------------------------------

    def step(self, duration_s: float | None = None) -> MulticoreTick:
        """Advance every active core one lock-step tick.

        Cores that finish their shard mid-tick (or finished earlier) are
        padded with idle power to the tick's duration, as are unused
        cores -- the package burns power until the last shard retires.
        """
        if self.finished:
            raise ExperimentError(
                "all shards already finished; load a new workload"
            )
        base = self.config.machine.timing
        active = self.cores[: self._threads]
        demands = [
            0.0 if core.finished
            else core.peek_rates(timing=base).bytes_per_s
            for core in active
        ]
        contention = self.config.contention
        timings = contention.effective_timings(base, demands)

        records: list[TickRecord | None] = []
        dt = self.config.machine.tick_s if duration_s is None else duration_s
        for core, timing in zip(active, timings):
            if core.finished:
                records.append(None)
                continue
            core.set_effective_timing(timing)
            records.append(core.step(dt))

        stepped = [rec for rec in records if rec is not None]
        duration = max(rec.duration_s for rec in stepped)
        energy = 0.0
        instructions = 0.0
        for i, core in enumerate(self.cores):
            rec = records[i] if i < self._threads else None
            if rec is not None:
                pad = duration - rec.duration_s
                energy += rec.energy_j
                instructions += rec.instructions
            else:
                pad = duration
            if pad > 1e-15:
                pad_power = idle_power(
                    core.current_pstate, self.config.machine.power
                )
                energy += pad_power * pad
                if self.config.n_cores > 1:
                    core._emit_power(pad_power, pad)

        self._time_s += duration
        power = energy / duration if duration > 0 else 0.0
        if self.config.n_cores > 1:
            for sink in self._power_sinks:
                sink(power, duration)
        return MulticoreTick(
            time_s=self.now_s,
            duration_s=duration,
            energy_j=energy,
            power_w=power,
            instructions=instructions,
            core_records=tuple(records)
            + (None,) * (self.config.n_cores - self._threads),
            bus_utilization=contention.utilization(base, demands),
        )

    def peek_demands(self) -> tuple[float, ...]:
        """Uncontended per-core bus demand (bytes/s) for the next tick."""
        base = self.config.machine.timing
        return tuple(
            0.0 if core.finished
            else core.peek_rates(timing=base).bytes_per_s
            for core in self.cores[: self._threads]
        )
