"""EnergyOptimalSearch: exhaustive (threads x frequency) energy minimizer.

The HPC energy-configuration literature (PAPERS.md: "Energy-Optimal
Configurations for Single-Node HPC Applications") finds the minimum-
energy operating point of a parallel application by searching the full
frequency x thread-count grid.  This governor reproduces that search on
top of the paper's trained models:

- per-tick it behaves like a pure energy-per-instruction minimizer over
  the p-state table (the frequency dimension, online), using the same
  three-event multiplexed monitoring as
  :class:`~repro.core.governors.energy_efficiency.EnergyDelayOptimizer`;
- :meth:`project_grid` / :meth:`best_configuration` build the full
  (threads, p-state) projection table from one observed sample: Eq. 3
  two-class frequency scaling x Amdahl thread scaling x a shared-bus
  bandwidth cap, with parked cores charged at the power model's
  zero-activity intercept.

The grid projection deliberately ignores the contention *latency*
inflation (only the bandwidth ceiling is applied) -- quantifying the
resulting error against the measured optimum is exactly what
``experiment multicore`` does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.acpi.pstates import PState, PStateTable
from repro.core.governors.base import Governor
from repro.core.models.performance import PerformanceModel
from repro.core.models.power import LinearPowerModel
from repro.core.models.projection import project_dpc
from repro.core.sampling import CounterSample
from repro.errors import GovernorError
from repro.multicore.workload import parallel_efficiency
from repro.platform.events import Event


@dataclass(frozen=True)
class ConfigProjection:
    """Projected behaviour of one (threads, p-state) configuration."""

    threads: int
    pstate: PState
    throughput_ips: float
    power_w: float

    @property
    def energy_per_giga_instruction_j(self) -> float:
        """Projected energy to retire 1e9 instructions."""
        if self.throughput_ips <= 0:
            return float("inf")
        return self.power_w / self.throughput_ips * 1e9


class EnergyOptimalSearch(Governor):
    """Grid-search governor over the (threads, frequency) space."""

    EVENT_GROUPS: tuple[tuple[Event, ...], ...] = (
        (Event.INST_RETIRED, Event.INST_DECODED),
        (Event.INST_RETIRED, Event.DCU_MISS_OUTSTANDING),
    )

    def __init__(
        self,
        table: PStateTable,
        power_model: LinearPowerModel,
        performance_model: PerformanceModel,
        n_cores: int = 1,
        thread_counts: tuple[int, ...] | None = None,
        serial_fraction: float = 0.0,
        sync_overhead: float = 0.0,
        bandwidth_ceiling_bytes_per_s: float = 2.8e9,
    ):
        super().__init__(table)
        if n_cores < 1:
            raise GovernorError(f"n_cores must be >= 1, got {n_cores!r}")
        if thread_counts is None:
            thread_counts = tuple(range(1, n_cores + 1))
        if any(t < 1 or t > n_cores for t in thread_counts):
            raise GovernorError(
                f"thread_counts must lie in 1..{n_cores}, got {thread_counts!r}"
            )
        if bandwidth_ceiling_bytes_per_s <= 0:
            raise GovernorError("bandwidth ceiling must be positive")
        self._power = power_model
        self._performance = performance_model
        self.n_cores = n_cores
        self.thread_counts = tuple(sorted(set(thread_counts)))
        self.serial_fraction = serial_fraction
        self.sync_overhead = sync_overhead
        self.bandwidth_ceiling_bytes_per_s = bandwidth_ceiling_bytes_per_s
        self._dpc = 0.0
        self._dcu = 0.0
        self._rows_by_mhz: dict | None = None

    @property
    def events(self) -> tuple[Event, ...]:
        return self.EVENT_GROUPS[0]

    @property
    def event_groups(self) -> tuple[tuple[Event, ...], ...]:
        return self.EVENT_GROUPS

    def reset(self) -> None:
        self._dpc = 0.0
        self._dcu = 0.0

    # -- online frequency control ------------------------------------------------

    def objective(
        self, sample_ipc: float, current: PState, candidate: PState
    ) -> float:
        """Projected energy per instruction at ``candidate`` (single core)."""
        dpc = project_dpc(
            self._dpc, current.frequency_mhz, candidate.frequency_mhz
        )
        power = self._power.estimate(candidate, dpc)
        dcu_per_ipc = self._dcu / sample_ipc if sample_ipc > 0 else 0.0
        throughput = self._performance.project_throughput(
            sample_ipc,
            dcu_per_ipc,
            current.frequency_mhz,
            candidate.frequency_mhz,
        )
        if throughput <= 0:
            return float("inf")
        return power / throughput

    def decide(self, sample: CounterSample, current: PState) -> PState:
        rates = sample.rates
        if Event.INST_DECODED in rates:
            self._dpc = rates[Event.INST_DECODED]
        if Event.DCU_MISS_OUTSTANDING in rates:
            self._dcu = rates[Event.DCU_MISS_OUTSTANDING]
        ipc = rates.get(Event.INST_RETIRED, 0.0)
        dpc = self._dpc
        if ipc <= 0 or dpc <= 0:
            return current
        # As objective() computes it (a NaN IPC gets 0.0).
        dcu_per_ipc = self._dcu / ipc if ipc > 0 else 0.0
        rows = self._rows()
        row = rows.get(current.frequency_mhz) if rows is not None else None
        if row is None or dcu_per_ipc < 0:
            # An overridden objective, a state off the table, or a
            # sample Eq. 3 rejects: the scan (which raises for the last).
            return self._scan(ipc, current)
        # objective() per candidate from the Eq. 2/4 and Eq. 3 tables,
        # in its float order; min()'s first-wins order on ties.
        core_bound = dcu_per_ipc < self._performance.dcu_threshold
        best = best_index = None
        for i, (scale, alpha, beta, to_mhz, factor) in enumerate(row):
            power = alpha * (dpc * scale) + beta
            if core_bound:
                throughput = ipc * to_mhz * 1e6
            else:
                throughput = ipc * factor * to_mhz * 1e6
            value = float("inf") if throughput <= 0 else power / throughput
            if best is None or value < best:
                best = value
                best_index = i
        return self.table[best_index]

    def _scan(self, ipc: float, current: PState) -> PState:
        """The candidate of least :meth:`objective` (the first of equal
        ones) at the last-known DPC and DCU.  Changes nothing."""
        return min(
            self.table,
            key=lambda candidate: self.objective(ipc, current, candidate),
        )

    def _rows(self) -> dict | None:
        """The objective's projection rows, or None when a subclass
        overrides :meth:`objective`: per current frequency, one
        ``(scale, alpha, beta, to_mhz, factor)`` per candidate (fastest
        first), read from the shared Eq. 2/4
        (:func:`~repro.exec.cache.pm_projection_table`) and Eq. 3
        (:func:`~repro.exec.cache.ps_projection_table`) tables.  Built
        once per governor.
        """
        if type(self).objective is not EnergyOptimalSearch.objective:
            return None
        if self._rows_by_mhz is not None:
            return self._rows_by_mhz
        from repro.exec.cache import pm_projection_table, ps_projection_table

        # A model missing a table state raises here what the scan
        # raises at that state.
        power = pm_projection_table(self._power, self.table)
        ps = ps_projection_table(self._performance, self.table)
        n = len(self.table)
        rows = {}
        for index, from_mhz in enumerate(power.frequencies_mhz):
            # Eq. 3's factors are stored slowest candidate first.
            factors = ps.ascending[index]
            rows[from_mhz] = tuple(
                (*power.rows[index][i], ps.frequencies_mhz[i],
                 factors[n - 1 - i][1])
                for i in range(n)
            )
        self._rows_by_mhz = rows
        return rows

    # -- (threads, frequency) grid projection --------------------------------

    def project_grid(
        self,
        ipc: float,
        dpc: float,
        dcu: float,
        current: PState,
        bytes_per_instruction: float = 0.0,
    ) -> tuple[ConfigProjection, ...]:
        """Project every (threads, p-state) cell from one observed sample.

        ``ipc``/``dpc``/``dcu`` describe one core running one thread at
        ``current``; ``bytes_per_instruction`` is the thread's bus
        traffic (from a trained characterization -- the PMU's two
        counters cannot observe it directly), used to cap aggregate
        throughput at the bandwidth ceiling.
        """
        if ipc <= 0:
            raise GovernorError("need a positive observed IPC to project")
        dcu_per_ipc = dcu / ipc
        cells = []
        for candidate in self.table:
            single_ips = self._performance.project_throughput(
                ipc, dcu_per_ipc,
                current.frequency_mhz, candidate.frequency_mhz,
            )
            dpc_at = project_dpc(
                dpc, current.frequency_mhz, candidate.frequency_mhz
            )
            active_power = self._power.estimate(candidate, dpc_at)
            idle_power = self._power.estimate(candidate, 0.0)
            for threads in self.thread_counts:
                efficiency = parallel_efficiency(
                    threads, self.serial_fraction, self.sync_overhead
                )
                throughput = single_ips * threads * efficiency
                if bytes_per_instruction > 0:
                    demand = throughput * bytes_per_instruction
                    if demand > self.bandwidth_ceiling_bytes_per_s:
                        throughput = (
                            self.bandwidth_ceiling_bytes_per_s
                            / bytes_per_instruction
                        )
                power = (
                    threads * active_power
                    + (self.n_cores - threads) * idle_power
                )
                cells.append(ConfigProjection(
                    threads=threads,
                    pstate=candidate,
                    throughput_ips=throughput,
                    power_w=power,
                ))
        return tuple(cells)

    def best_configuration(
        self,
        ipc: float,
        dpc: float,
        dcu: float,
        current: PState,
        bytes_per_instruction: float = 0.0,
    ) -> ConfigProjection:
        """The grid cell minimizing projected energy per instruction."""
        return min(
            self.project_grid(
                ipc, dpc, dcu, current,
                bytes_per_instruction=bytes_per_instruction,
            ),
            key=lambda cell: cell.energy_per_giga_instruction_j,
        )
