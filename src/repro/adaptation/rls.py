"""Recursive least squares for the per-p-state linear power model.

The paper fits ``P = alpha * DPC + beta`` per p-state once, offline, on
the MS-Loops characterization sweep (Table II).  Online adaptation
needs the same fit to be *refinable from the control loop itself*: every
10 ms tick yields one ``(DPC, measured power)`` pair at the p-state that
just executed.  :class:`PowerModelRLS` maintains one two-parameter
recursive-least-squares estimate per p-state -- O(1) state and O(1)
update per sample, no history stored -- with an exponential forgetting
factor so stale pre-drift samples age out of the fit.

Standard RLS with regressor ``phi = [dpc, 1]`` and parameters
``theta = [alpha, beta]``::

    K     = P phi / (lambda + phi' P phi)
    theta = theta + K (y - phi' theta)
    P     = (P - K phi' P) / lambda

``lambda`` (the forgetting factor) in (0, 1]: 1.0 is the ordinary
infinite-memory fit; smaller values weight recent samples more, with an
effective window of roughly ``1 / (1 - lambda)`` samples.

The two-by-two algebra runs on plain floats: each p-state keeps six
(``theta0, theta1, P00, P01, P10, P11``).  The results are bit for bit
those of the numpy formula the fit was first written in, whose
``P @ phi`` (a BLAS gemv) returns each lane *fused*,
``fma(P[i][0], dpc, P[i][1])``, one rounding instead of two.  Python
before 3.13 has no ``math.fma``, so :func:`_fma` computes it exactly:
Dekker's two-product splits ``a * b`` into ``p + e`` with no error and
:func:`math.fsum` rounds ``p + e + c`` once, correctly.  Every other step
(the ``phi' x`` dot products, the element-wise update) is what numpy
computes unfused.  Recalibrated models, and so the digests of adapting
runs, no longer depend on the BLAS kernel a host picks.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.acpi.pstates import PState
from repro.core.models.power import LinearPowerModel, PStateCoefficients
from repro.errors import AdaptationError

#: Initial parameter-covariance scale for a cold-started p-state (large:
#: the first few samples dominate the estimate).
COLD_P0 = 1e4

#: Initial covariance scale when warm-starting from an existing model's
#: coefficients (small: trust the prior until evidence accumulates).
WARM_P0 = 1.0

#: Floor applied to a refitted beta so the resulting
#: :class:`PStateCoefficients` keeps its idle-power-is-positive invariant.
MIN_BETA_W = 0.05


#: Veltkamp's splitting constant for doubles, ``2**27 + 1``.
_SPLIT = 134217729.0


def _fma(a: float, b: float, c: float) -> float:
    """``a * b + c`` rounded once (what a fused multiply-add returns)."""
    p = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = _SPLIT * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    # Dekker: p + e == a * b exactly.
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return math.fsum((p, e, c))


class _RlsState:
    """One p-state's running estimate: ``theta`` and the covariance
    ``P``, row by row, as plain floats."""

    __slots__ = ("t0", "t1", "p00", "p01", "p10", "p11", "count")

    def __init__(self, t0: float, t1: float, p0: float):
        self.t0 = t0
        self.t1 = t1
        self.p00 = self.p11 = p0
        self.p01 = self.p10 = 0.0
        self.count = 0


class PowerModelRLS:
    """Per-p-state recursive (alpha, beta) refinement from live samples.

    Parameters
    ----------
    forgetting:
        Exponential forgetting factor ``lambda`` in (0, 1].
    initial_model:
        Optional model whose coefficients warm-start each p-state's
        estimate (cold p-states start from zero with a large covariance).
    """

    def __init__(
        self,
        forgetting: float = 0.98,
        initial_model: LinearPowerModel | None = None,
    ):
        if not 0.0 < forgetting <= 1.0:
            raise AdaptationError(
                f"forgetting factor must be in (0, 1], got {forgetting}"
            )
        self._forgetting = forgetting
        self._initial = initial_model
        self._states: dict[float, _RlsState] = {}

    @property
    def forgetting(self) -> float:
        """The forgetting factor ``lambda``."""
        return self._forgetting

    @property
    def frequencies_mhz(self) -> tuple[float, ...]:
        """P-states that have received at least one sample, ascending."""
        return tuple(sorted(self._states))

    def _state(self, frequency_mhz: float) -> _RlsState:
        state = self._states.get(frequency_mhz)
        if state is None:
            t0 = t1 = 0.0
            p0 = COLD_P0
            if self._initial is not None:
                try:
                    prior = self._initial.coefficients(frequency_mhz)
                except Exception:  # noqa: BLE001 - any miss cold-starts
                    prior = None
                if prior is not None:
                    t0 = float(prior.alpha)
                    t1 = float(prior.beta)
                    p0 = WARM_P0
            state = self._states[frequency_mhz] = _RlsState(t0, t1, p0)
        return state

    def update(
        self, pstate: PState | float, dpc: float, measured_w: float
    ) -> tuple[float, float]:
        """Fold one ``(DPC, measured power)`` sample into a p-state's fit.

        Returns the updated ``(alpha, beta)`` estimate.
        """
        if dpc < 0:
            raise AdaptationError(f"DPC cannot be negative, got {dpc}")
        if measured_w < 0:
            raise AdaptationError(
                f"measured power cannot be negative, got {measured_w}"
            )
        freq = pstate.frequency_mhz if isinstance(pstate, PState) else pstate
        state = self._state(freq)
        lam = self._forgetting
        p00 = state.p00
        p01 = state.p01
        p10 = state.p10
        p11 = state.p11
        # P phi, each lane fused (see the module docstring).
        x0 = _fma(p00, dpc, p01)
        x1 = _fma(p10, dpc, p11)
        denom = lam + (dpc * x0 + x1)
        g0 = x0 / denom
        g1 = x1 / denom
        err = measured_w - (dpc * state.t0 + state.t1)
        state.t0 = t0 = state.t0 + g0 * err
        state.t1 = t1 = state.t1 + g1 * err
        state.p00 = (p00 - g0 * x0) / lam
        state.p01 = (p01 - g0 * x1) / lam
        state.p10 = (p10 - g1 * x0) / lam
        state.p11 = (p11 - g1 * x1) / lam
        state.count += 1
        return t0, t1

    def samples_seen(self, frequency_mhz: float) -> int:
        """Samples folded into one p-state's estimate so far."""
        state = self._states.get(frequency_mhz)
        return state.count if state is not None else 0

    @property
    def total_samples(self) -> int:
        """Samples folded in across all p-states."""
        return sum(state.count for state in self._states.values())

    def coefficients(
        self, frequency_mhz: float
    ) -> PStateCoefficients | None:
        """The current estimate for one p-state (None before any sample).

        Estimates are clamped to the model invariants (``alpha >= 0``,
        ``beta > 0``) -- a briefly ill-conditioned fit must never
        produce an unconstructible model.
        """
        state = self._states.get(frequency_mhz)
        if state is None or state.count == 0:
            return None
        return PStateCoefficients(
            alpha=max(state.t0, 0.0), beta=max(state.t1, MIN_BETA_W)
        )

    def fitted_model(
        self,
        fallback: LinearPowerModel,
        min_samples: int = 1,
    ) -> LinearPowerModel:
        """A full model: refined where trusted, ``fallback`` elsewhere.

        A p-state's online estimate replaces the fallback coefficients
        only once it has absorbed ``min_samples`` samples; p-states the
        run never visited keep the fallback fit, so the swapped-in model
        always covers the whole table.
        """
        if min_samples < 1:
            raise AdaptationError("min_samples must be at least 1")
        coefficients: dict[float, PStateCoefficients] = {
            freq: fallback.coefficients(freq)
            for freq in fallback.frequencies_mhz
        }
        for freq in self.frequencies_mhz:
            if self.samples_seen(freq) >= min_samples:
                refined = self.coefficients(freq)
                if refined is not None:
                    coefficients[freq] = refined
        return LinearPowerModel(coefficients)

    def refit_frequencies(self, min_samples: int = 1) -> tuple[float, ...]:
        """P-states whose estimates would be trusted by :meth:`fitted_model`."""
        return tuple(
            freq
            for freq in self.frequencies_mhz
            if self.samples_seen(freq) >= min_samples
        )

    def reset(self) -> None:
        """Forget all per-p-state state (fresh run)."""
        self._states.clear()

    def snapshot(self) -> Mapping[float, dict]:
        """JSON-safe per-p-state estimate summary (for provenance)."""
        out: dict[float, dict] = {}
        for freq in self.frequencies_mhz:
            state = self._states[freq]
            out[freq] = {
                "alpha": state.t0,
                "beta": state.t1,
                "samples": state.count,
            }
        return out
