"""DPC projection across p-states (paper Eq. 4).

PerformanceMaximizer monitors only the decode rate at the *current*
frequency; to estimate power at other p-states it must first estimate
what the decode rate would be there.  The paper's Eq. 4::

    DPC(f') = DPC(f) * (f / f')   if f' <= f
    DPC(f') = DPC(f)              if f' >  f

is a deliberately conservative envelope:

* scaling **down** assumes decode throughput per *second* is fixed
  (memory-bound behaviour) so the per-cycle rate rises -- the highest
  per-cycle activity the slower state could exhibit;
* scaling **up** assumes the per-cycle rate is fixed (core-bound
  behaviour) -- again the highest activity the faster state could
  sustain.

Feeding the power model an over-estimate of DPC in both directions makes
PM err on the safe side of the power limit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.acpi.pstates import PStateTable
    from repro.core.models.performance import PerformanceModel
    from repro.core.models.power import LinearPowerModel


def project_dpc(dpc: float, from_mhz: float, to_mhz: float) -> float:
    """Project a decoded-instructions-per-cycle rate to another p-state.

    Parameters
    ----------
    dpc:
        Observed DPC at ``from_mhz``.
    from_mhz / to_mhz:
        Current and candidate frequencies.

    Returns
    -------
    float
        The conservative DPC estimate at ``to_mhz`` (paper Eq. 4).
    """
    if dpc < 0:
        raise ModelError(f"DPC cannot be negative, got {dpc}")
    if from_mhz <= 0 or to_mhz <= 0:
        raise ModelError("frequencies must be positive")
    if to_mhz <= from_mhz:
        return dpc * (from_mhz / to_mhz)
    return dpc


def project_rate_conservative(
    rate: float, from_mhz: float, to_mhz: float
) -> float:
    """Eq. 4 generalized to any per-cycle activity rate.

    The same memory-bound-down / core-bound-up envelope applies to other
    activity rates (e.g. DCU occupancy for PS's secondary prediction);
    this alias documents that reuse.
    """
    return project_dpc(rate, from_mhz, to_mhz)


class PowerProjectionTable:
    """Fused Eq. 4 x Eq. 2 rows for PerformanceMaximizer's inner loop.

    Per (current, candidate) p-state pair the projection is affine in
    the observed DPC::

        P_est = alpha(f') * (DPC * scale(f, f')) + beta(f')

    where ``scale`` is Eq. 4's conservative ratio (``f / f'`` when
    stepping down or staying, ``1.0`` when stepping up -- ``DPC * 1.0``
    is bitwise ``DPC``, so one row shape covers both directions).  The
    table is built once per model version and cached process-wide by
    :mod:`repro.exec.cache`; a governor whose model is hot-swapped by
    online adaptation drops its reference and rebuilds against the new
    coefficients.

    Rows are indexed by the *descending* p-state table index (fastest
    first), matching :class:`repro.acpi.pstates.PStateTable` order.
    """

    __slots__ = ("model", "frequencies_mhz", "index", "rows")

    def __init__(self, model: "LinearPowerModel", table: "PStateTable"):
        freqs = table.frequencies_mhz
        rows = []
        for from_mhz in freqs:
            row = []
            for to_mhz in freqs:
                coeff = model.coefficients(to_mhz)
                scale = (from_mhz / to_mhz) if to_mhz <= from_mhz else 1.0
                row.append((scale, coeff.alpha, coeff.beta))
            rows.append(tuple(row))
        self.model = model
        self.frequencies_mhz = freqs
        #: Row index of each current frequency.
        self.index = {from_mhz: i for i, from_mhz in enumerate(freqs)}
        self.rows = tuple(rows)

    def estimate(
        self, dpc: float, current_index: int, candidate_index: int
    ) -> float:
        """Estimated watts at the candidate, from DPC at the current."""
        scale, alpha, beta = self.rows[current_index][candidate_index]
        return alpha * (dpc * scale) + beta

    def desired_index(
        self, dpc: float, current_index: int, budget_w: float
    ) -> int:
        """Fastest candidate whose estimate fits the budget (Eq. 4 pick).

        Mirrors ``PerformanceMaximizer.decide``'s candidate scan exactly:
        fastest-first, first fit wins, slowest state as the fallback.
        """
        row = self.rows[current_index]
        for index, (scale, alpha, beta) in enumerate(row):
            if alpha * (dpc * scale) + beta <= budget_w:
                return index
        return len(row) - 1


class ThroughputProjectionTable:
    """Precomputed Eq. 3 frequency-sensitivity rows for PowerSave.

    ``project_ipc`` re-derives ``(f / f') ** memory_exponent`` for every
    candidate on every tick; the power factor depends only on the
    (current, candidate) frequency pair and the model's exponent, so it
    is tabulated here.  ``desired_index`` replicates
    ``PowerSave.decide`` operation-for-operation: classify once, scan
    candidates slowest-first, first state clearing the floor wins,
    fastest state as the fallback.

    Indices are *descending* table indices (fastest first); candidate
    rows are stored in the ascending scan order PS uses.
    """

    __slots__ = (
        "model",
        "frequencies_mhz",
        "fastest_mhz",
        "ascending",
        "fast_factor",
    )

    def __init__(self, model: "PerformanceModel", table: "PStateTable"):
        freqs = table.frequencies_mhz
        exponent = model.memory_exponent
        ascending = []
        fast_factor = []
        n = len(freqs)
        for from_mhz in freqs:
            row = []
            for position in range(n - 1, -1, -1):  # slowest-first scan
                to_mhz = freqs[position]
                row.append(
                    (to_mhz, (from_mhz / to_mhz) ** exponent, position)
                )
            ascending.append(tuple(row))
            fast_factor.append((from_mhz / freqs[0]) ** exponent)
        self.model = model
        self.frequencies_mhz = freqs
        self.fastest_mhz = freqs[0]
        self.ascending = tuple(ascending)
        self.fast_factor = tuple(fast_factor)

    def desired_index(
        self,
        ipc: float,
        dcu_per_ipc: float,
        current_index: int,
        floor_plus_eps: float,
    ) -> int:
        """The slowest candidate whose relative performance clears the floor."""
        core_bound = dcu_per_ipc < self.model.dcu_threshold
        if core_bound:
            peak = ipc * self.fastest_mhz * 1e6
        else:
            peak = ipc * self.fast_factor[current_index] * self.fastest_mhz * 1e6
        for to_mhz, factor, index in self.ascending[current_index]:
            if core_bound:
                throughput = ipc * to_mhz * 1e6
            else:
                throughput = ipc * factor * to_mhz * 1e6
            relative = throughput / peak if peak > 0 else 1.0
            if relative > floor_plus_eps:
                return index
        return 0
