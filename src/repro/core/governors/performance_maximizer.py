"""PerformanceMaximizer (PM): best performance under a power limit.

Paper §IV-A.  Every 10 ms PM:

1. **monitors** DPC (decoded instructions per cycle) -- one counter;
2. **predicts** DPC at every other p-state with Eq. 4, then applies the
   per-p-state linear power model to estimate power at each candidate;
3. **controls** by choosing the highest frequency whose estimated power
   plus a 0.5 W guardband stays within the current power limit.

Two asymmetries from the paper's implementation are preserved:

* **Lower immediately, raise patiently** -- a single bad 10 ms sample
  lowers the frequency at once, but PM "waits for 100 ms worth of
  consecutive samples that indicate frequency may be raised" before
  raising, to minimize violations during hard-to-predict behaviour.
* **Runtime limit changes** -- the prototype accepts a new power limit
  at any instant (delivered as SIGUSR1/SIGUSR2 in the paper); here,
  :meth:`set_power_limit` may be called between ticks.
"""

from __future__ import annotations

from repro.acpi.pstates import PState, PStateTable
from repro.core.governors.base import Governor
from repro.core.models.power import LinearPowerModel
from repro.core.models.projection import project_dpc
from repro.core.sampling import CounterSample
from repro.errors import GovernorError
from repro.platform.events import Event

#: Paper: "we add a 0.5 W guardband to the estimated power to
#: accommodate model inaccuracies and system variability."
DEFAULT_GUARDBAND_W = 0.5

#: Paper: raise decisions need 100 ms of consecutive agreeing samples --
#: ten 10 ms samples.
DEFAULT_RAISE_WINDOW = 10


class PerformanceMaximizer(Governor):
    """Power-limit governor driven by the DPC power model."""

    def __init__(
        self,
        table: PStateTable,
        model: LinearPowerModel,
        power_limit_w: float,
        guardband_w: float = DEFAULT_GUARDBAND_W,
        raise_window: int = DEFAULT_RAISE_WINDOW,
    ):
        super().__init__(table)
        if guardband_w < 0:
            raise GovernorError("guardband must be non-negative")
        if raise_window < 1:
            raise GovernorError("raise window must be at least one sample")
        self._model = model
        self._guardband = guardband_w
        self._raise_window = raise_window
        self._limit = 0.0
        self.set_power_limit(power_limit_w)
        self._raise_streak = 0
        self._pending_raise: PState | None = None
        self._projection = None

    # -- configuration ---------------------------------------------------------

    @property
    def power_limit_w(self) -> float:
        """The currently enforced power limit."""
        return self._limit

    def set_power_limit(self, watts: float) -> None:
        """Change the power limit, effective at the next decision.

        Mirrors the paper's signal-driven runtime limit changes.  The
        raise hysteresis is reset so a *lowered* limit acts immediately
        and a *raised* limit still waits out the window.
        """
        if watts <= 0:
            raise GovernorError(f"power limit must be positive, got {watts}")
        self._limit = watts
        self._raise_streak = 0
        self._pending_raise = None

    @property
    def model(self) -> LinearPowerModel:
        """The power model currently driving estimates."""
        return self._model

    def swap_model(self, model: LinearPowerModel) -> None:
        """Hot-swap the power model, effective at the next decision.

        The online-adaptation manager calls this between control
        decisions after a confirmed recalibration or rollback; the
        raise hysteresis is left alone (the streak's evidence is about
        the workload, not the model).
        """
        self._model = model
        self._projection = None  # rebuilt lazily against the new model

    def projection_table(self):
        """The fused Eq. 4 x Eq. 2 projection rows for the fused loop.

        Built once per model *version* (process-wide, value-keyed via
        :func:`repro.exec.cache.pm_projection_table`) and dropped on
        :meth:`swap_model`, so online adaptation's hot-swaps invalidate
        it.  Estimates are bitwise identical to
        :meth:`estimate_power` -- ``tests/core/test_block_equivalence``
        pins this.
        """
        tbl = getattr(self, "_projection", None)
        if tbl is None or tbl.model != self._model:
            from repro.exec.cache import pm_projection_table

            tbl = self._projection = pm_projection_table(
                self._model, self.table
            )
        return tbl

    def __getstate__(self):
        # The projection table is a pure cache; stripping it keeps
        # checkpoints byte-identical whether or not the fused loop
        # ever touched this governor.
        state = self.__dict__.copy()
        state["_projection"] = None
        return state

    @property
    def guardband_w(self) -> float:
        """The estimate guardband currently applied."""
        return self._guardband

    def set_guardband(self, watts: float) -> None:
        """Change the estimate guardband, effective at the next decision.

        The adaptation manager widens it in proportion to the observed
        model-residual spread: a model known to be noisy is trusted
        less.
        """
        if watts < 0:
            raise GovernorError("guardband must be non-negative")
        self._guardband = watts

    @property
    def events(self) -> tuple[Event, ...]:
        """PM needs only the decode counter (paper §IV-A1)."""
        return (Event.INST_DECODED,)

    def reset(self) -> None:
        self._raise_streak = 0
        self._pending_raise = None

    # -- estimation ---------------------------------------------------------------

    def estimate_power(
        self, sample: CounterSample, current: PState, candidate: PState
    ) -> float:
        """Estimated power at ``candidate`` given the current sample."""
        dpc = project_dpc(
            sample.dpc, current.frequency_mhz, candidate.frequency_mhz
        )
        return self._model.estimate(candidate, dpc)

    def _desired(self, sample: CounterSample, current: PState) -> PState:
        """Highest-frequency state whose estimate fits under the limit."""
        budget = self._limit - self._guardband
        for candidate in self.table:  # descending frequency
            if self.estimate_power(sample, current, candidate) <= budget:
                return candidate
        # Nothing fits: degrade as far as the hardware allows (the paper's
        # platform cannot clock below 600 MHz either).
        return self.table.slowest

    # -- control -----------------------------------------------------------------

    def decide(self, sample: CounterSample, current: PState) -> PState:
        desired = self._desired(sample, current)

        if desired.frequency_mhz < current.frequency_mhz:
            # Lower immediately on a single sample (paper §IV-A1).
            self._raise_streak = 0
            self._pending_raise = None
            return desired

        if desired.frequency_mhz > current.frequency_mhz:
            # Track the most conservative raise target seen during the
            # window: every sample in the streak must allow at least the
            # state we finally raise to.
            if (
                self._pending_raise is None
                or desired.frequency_mhz < self._pending_raise.frequency_mhz
            ):
                self._pending_raise = desired
            self._raise_streak += 1
            if self._raise_streak >= self._raise_window:
                target = self._pending_raise
                self._raise_streak = 0
                self._pending_raise = None
                return target
            return current

        # desired == current: the streak is broken.
        self._raise_streak = 0
        self._pending_raise = None
        return current
