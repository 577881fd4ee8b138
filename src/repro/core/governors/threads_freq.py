"""ThreadsFreqGovernor: online walker of the (threads, p-state) space.

Where :class:`~repro.core.governors.energy_optimal.EnergyOptimalSearch`
projects the whole grid from trained tables, this governor *walks* it
online with nothing but the paper's counters:

- the frequency dimension moves one table step per decision, toward
  lower projected energy per instruction, using the Eq. 3 two-class
  classifier (a memory-bound sample makes down-clocking nearly free, a
  core-bound one makes it expensive);
- the thread dimension moves one step per epoch through
  :meth:`recommend_threads`: when the shared bus is saturated *and* the
  sample classifies memory-bound, a thread is parked (it was adding
  power, not throughput); when the bus has headroom, a thread is added.

Both walks are local (one step at a time, hysteresis via the
utilisation dead-band), which is what makes the policy deployable
online -- and what ``experiment multicore`` compares against the
exhaustive search's optimum.
"""

from __future__ import annotations

from typing import Sequence

from repro.acpi.pstates import PState, PStateTable
from repro.core.governors.base import Governor
from repro.core.models.performance import PerformanceModel, WorkloadClass
from repro.core.models.power import LinearPowerModel
from repro.core.models.projection import project_dpc
from repro.core.sampling import CounterSample
from repro.errors import GovernorError
from repro.platform.events import Event


class ThreadsFreqGovernor(Governor):
    """One-step-at-a-time (threads, p-state) energy walker."""

    EVENT_GROUPS: tuple[tuple[Event, ...], ...] = (
        (Event.INST_RETIRED, Event.INST_DECODED),
        (Event.INST_RETIRED, Event.DCU_MISS_OUTSTANDING),
    )

    def __init__(
        self,
        table: PStateTable,
        power_model: LinearPowerModel,
        performance_model: PerformanceModel,
        saturation_high: float = 0.9,
        saturation_low: float = 0.6,
    ):
        super().__init__(table)
        if not 0.0 < saturation_low < saturation_high:
            raise GovernorError(
                "need 0 < saturation_low < saturation_high, got "
                f"{saturation_low!r} / {saturation_high!r}"
            )
        self._power = power_model
        self._performance = performance_model
        self.saturation_high = saturation_high
        self.saturation_low = saturation_low
        self._dpc = 0.0
        self._dcu = 0.0

    @property
    def events(self) -> tuple[Event, ...]:
        return self.EVENT_GROUPS[0]

    @property
    def event_groups(self) -> tuple[tuple[Event, ...], ...]:
        return self.EVENT_GROUPS

    def reset(self) -> None:
        self._dpc = 0.0
        self._dcu = 0.0

    def _energy_per_instruction(
        self, ipc: float, current: PState, candidate: PState
    ) -> float:
        dpc = project_dpc(
            self._dpc, current.frequency_mhz, candidate.frequency_mhz
        )
        power = self._power.estimate(candidate, dpc)
        dcu_per_ipc = self._dcu / ipc if ipc > 0 else 0.0
        throughput = self._performance.project_throughput(
            ipc, dcu_per_ipc,
            current.frequency_mhz, candidate.frequency_mhz,
        )
        if throughput <= 0:
            return float("inf")
        return power / throughput

    def decide(self, sample: CounterSample, current: PState) -> PState:
        """Step at most one table entry toward lower projected energy."""
        if Event.INST_DECODED in sample.rates:
            self._dpc = sample.rates[Event.INST_DECODED]
        if Event.DCU_MISS_OUTSTANDING in sample.rates:
            self._dcu = sample.rates[Event.DCU_MISS_OUTSTANDING]
        ipc = sample.rates.get(Event.INST_RETIRED, 0.0)
        if ipc <= 0 or self._dpc <= 0:
            return current
        neighbors = {current, self.table.step_down(current),
                     self.table.step_up(current)}
        return min(
            neighbors,
            key=lambda candidate: self._energy_per_instruction(
                ipc, current, candidate
            ),
        )

    def recommend_threads(
        self,
        samples: Sequence[CounterSample],
        threads: int,
        n_cores: int,
        bus_utilization: float = 0.0,
    ) -> int:
        """One thread-count step from the bus pressure and Eq. 3 class.

        Called by the multicore controller once per epoch with the
        latest per-domain samples and the shared-bus demand/ceiling
        ratio from the contention model.  A multiplexed sample from the
        other event group carries no DCU rate; the last one
        :meth:`decide` saw stands in for it.
        """
        memory_bound = any(
            self._performance.classify(
                sample.rates.get(Event.DCU_MISS_OUTSTANDING, self._dcu)
                / sample.ipc
            )
            is WorkloadClass.MEMORY_BOUND
            for sample in samples
            if sample is not None and sample.ipc > 0
        )
        if bus_utilization >= self.saturation_high and memory_bound:
            # The bus is the bottleneck: an extra thread adds power but
            # no throughput, so park one.
            return max(1, threads - 1)
        if bus_utilization <= self.saturation_low and threads < n_cores:
            return threads + 1
        return threads
