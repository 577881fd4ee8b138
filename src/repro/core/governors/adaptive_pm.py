"""Adaptive PerformanceMaximizer: measured-power feedback extension.

The paper's own future-work sketch for workloads the static model
mispredicts (galgel): "PM could adapt model coefficients on the fly or
scale measured power for p-state changes" (§IV-A2).  This governor
implements the first variant: it keeps an exponentially weighted
per-p-state *offset* between measured and estimated power and adds the
offset to subsequent estimates, so persistent underestimation (galgel's
FP/L2-heavy bursts) is corrected within a few samples.

Requires a measured-power feed -- on the paper's platform this would
mean exposing the DAQ readings to the control loop (the new-hardware
investment their Foxton/ACPC comparisons make); in the reproduction the
tick kernel folds each 10 ms meter sample in as :meth:`observe_power`
does (in its table mode, on offsets it keeps by p-state index) or calls
:meth:`observe_power` (in hook mode).
"""

from __future__ import annotations

from repro.acpi.pstates import PState, PStateTable
from repro.core.governors.performance_maximizer import (
    DEFAULT_GUARDBAND_W,
    DEFAULT_RAISE_WINDOW,
    PerformanceMaximizer,
)
from repro.core.models.power import LinearPowerModel
from repro.core.sampling import CounterSample
from repro.errors import GovernorError


def nearest_visited(
    offsets: dict[float, float], frequency_mhz: float
) -> float:
    """The visited frequency (a key of ``offsets``) whose correction a
    p-state at ``frequency_mhz`` takes: its own once visited; otherwise
    the nearest visited one (the paper's "scale measured power for
    p-state changes" idea, in its simplest form), ties going to the one
    visited first."""
    if frequency_mhz in offsets:
        return frequency_mhz
    return min(offsets, key=lambda f: abs(f - frequency_mhz))


class AdaptivePerformanceMaximizer(PerformanceMaximizer):
    """PM with an EWMA model-error correction per p-state."""

    def __init__(
        self,
        table: PStateTable,
        model: LinearPowerModel,
        power_limit_w: float,
        guardband_w: float = DEFAULT_GUARDBAND_W,
        raise_window: int = DEFAULT_RAISE_WINDOW,
        adaptation_gain: float = 0.25,
    ):
        super().__init__(
            table, model, power_limit_w, guardband_w, raise_window
        )
        if not 0.0 < adaptation_gain <= 1.0:
            raise GovernorError(
                f"adaptation gain must be in (0, 1], got {adaptation_gain}"
            )
        self._gain = adaptation_gain
        self._offsets: dict[float, float] = {}
        self._last_sample: CounterSample | None = None
        self._last_state: PState | None = None

    def reset(self) -> None:
        super().reset()
        self._offsets.clear()
        self._last_sample = None
        self._last_state = None

    def swap_model(self, model: LinearPowerModel) -> None:
        """Hot-swap the model and drop the learned offsets.

        A recalibrated model already absorbs whatever persistent error
        the offsets were compensating; keeping them would double-count
        the correction.
        """
        super().swap_model(model)
        self._offsets.clear()

    def offset(self, pstate: PState) -> float:
        """Current learned correction for a p-state (W)."""
        return self._offsets.get(pstate.frequency_mhz, 0.0)

    def observe_power(self, measured_w: float) -> None:
        """Feed the measured power for the interval just sampled.

        Must be called after :meth:`decide` for the same tick; updates
        the offset of the p-state that produced the measurement.
        """
        if measured_w < 0:
            raise GovernorError("measured power cannot be negative")
        if self._last_sample is None or self._last_state is None:
            return  # nothing to correlate against yet
        estimated = super().estimate_power(
            self._last_sample, self._last_state, self._last_state
        )
        error = measured_w - estimated
        freq = self._last_state.frequency_mhz
        previous = self._offsets.get(freq, 0.0)
        self._offsets[freq] = previous + self._gain * (error - previous)

    def estimate_power(
        self, sample: CounterSample, current: PState, candidate: PState
    ) -> float:
        base = super().estimate_power(sample, current, candidate)
        if self._offsets:
            correction = self._offsets[
                nearest_visited(self._offsets, candidate.frequency_mhz)
            ]
        else:
            correction = 0.0
        return base + max(0.0, correction)

    def decide(self, sample: CounterSample, current: PState) -> PState:
        self._last_sample = sample
        self._last_state = current
        return super().decide(sample, current)
