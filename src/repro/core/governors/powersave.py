"""PowerSave (PS): energy savings above a performance floor.

Paper §IV-B.  Unlike demand-based switching, PS saves energy *at full
load* by letting the user trade a bounded amount of performance.  Every
10 ms PS:

1. **monitors** IPC (retired instructions per cycle) and DCU (data-cache
   -unit miss-outstanding cycles per cycle) -- exactly the two counters
   the Pentium M has;
2. **estimates** IPC at every p-state with the two-class model (Eq. 3),
   classifying the current sample by its DCU/IPC ratio;
3. **controls** by choosing the *lowest* frequency whose projected
   throughput stays at or above ``floor x`` the projected peak
   (max-frequency) throughput.

The floor is a fraction of *peak* performance: a floor of 0.8 permits at
most a 20% performance loss (paper's "80% performance floor").
"""

from __future__ import annotations

from repro.acpi.pstates import PState, PStateTable
from repro.core.governors.base import Governor
from repro.core.models.performance import PerformanceModel
from repro.core.sampling import CounterSample
from repro.errors import GovernorError
from repro.platform.events import Event


class PowerSave(Governor):
    """Performance-floor governor driven by the two-class IPC model."""

    def __init__(
        self,
        table: PStateTable,
        model: PerformanceModel,
        floor: float,
    ):
        super().__init__(table)
        self._model = model
        self._floor = 0.0
        self.set_floor(floor)
        self._projection = None

    @property
    def floor(self) -> float:
        """Minimum acceptable fraction of peak performance."""
        return self._floor

    def set_floor(self, floor: float) -> None:
        """Change the performance floor, effective at the next decision."""
        if not 0.0 < floor <= 1.0:
            raise GovernorError(
                f"performance floor must be in (0, 1], got {floor}"
            )
        self._floor = floor

    @property
    def model(self) -> PerformanceModel:
        """The Eq. 3 performance model in use."""
        return self._model

    @property
    def events(self) -> tuple[Event, ...]:
        """PS needs retired instructions + DCU occupancy (paper §IV-B1)."""
        return (Event.INST_RETIRED, Event.DCU_MISS_OUTSTANDING)

    def projection_table(self):
        """Precomputed Eq. 3 sensitivity rows for the fused loop.

        Value-keyed and shared process-wide via
        :func:`repro.exec.cache.ps_projection_table`; picks are bitwise
        identical to :meth:`decide`'s candidate scan.
        """
        tbl = getattr(self, "_projection", None)
        if tbl is None or tbl.model != self._model:
            from repro.exec.cache import ps_projection_table

            tbl = self._projection = ps_projection_table(
                self._model, self.table
            )
        return tbl

    def __getstate__(self):
        # Pure cache -- strip so checkpoints stay path-independent.
        state = self.__dict__.copy()
        state["_projection"] = None
        return state

    def projected_relative_performance(
        self, sample: CounterSample, current: PState, candidate: PState
    ) -> float:
        """Projected throughput at ``candidate`` / projected peak throughput."""
        peak = self._model.project_throughput(
            sample.ipc,
            sample.dcu_per_ipc,
            current.frequency_mhz,
            self.table.fastest.frequency_mhz,
        )
        if peak <= 0:
            return 1.0  # no measurable work: any state "meets" the floor
        candidate_throughput = self._model.project_throughput(
            sample.ipc,
            sample.dcu_per_ipc,
            current.frequency_mhz,
            candidate.frequency_mhz,
        )
        return candidate_throughput / peak

    def decide(self, sample: CounterSample, current: PState) -> PState:
        # Ascending frequency: the first candidate keeping performance
        # strictly *above* the floor is the lowest-power feasible choice.
        # The inequality is strict -- PS keeps "performance above
        # specified requirements", and the paper notes that discretized
        # p-states make it impossible to reach the floor exactly ("using
        # the next lower frequency would push the performance below the
        # floor", §IV-B2).  So at an 80% floor a core-bound workload runs
        # at 1800 MHz (projected 0.90 > 0.80), not 1600 (0.80, not above).
        for candidate in self.table.ascending():
            relative = self.projected_relative_performance(
                sample, current, candidate
            )
            if relative > self._floor + 1e-12:
                return candidate
        # No state is above the floor per the model: run at full speed
        # rather than knowingly violate.
        return self.table.fastest
