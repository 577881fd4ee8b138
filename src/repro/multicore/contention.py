"""Shared L2/DRAM contention: bandwidth pressure inflates miss latency.

Each core advertises its *uncontended* memory-bus demand (bytes/s at the
current phase, p-state and jitter).  The model then hands every core an
effective :class:`~repro.platform.caches.MemoryTiming` in which

- DRAM miss latency is inflated by an M/M/1-style queueing factor driven
  by the *other* cores' utilisation of the shared bus, and
- the core's bandwidth share is cut so that aggregate traffic saturates
  at the configured ceiling when every core is memory-bound.

The pressure is **self-excluding**: a core is only slowed by the demand
of its neighbours, never by its own.  A single loaded core therefore
sees zero external pressure and receives the *base timing object
unchanged* -- every downstream float operation is identical to the
single-core :class:`~repro.platform.machine.Machine`, which is what
makes the 1-core ``run_result_digest`` bit-identity gate hold.

What is deliberately *not* modelled: L2 capacity conflicts (working-set
eviction between cores), DRAM bank/row locality, and coherence traffic.
The paper's counters cannot distinguish those from plain bandwidth
pressure, so we fold all sharing effects into the latency/bandwidth pair
above; DESIGN.md discusses the ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.errors import ExperimentError
from repro.platform.caches import MemoryTiming, check_memory_timing

_EPSILON_DEMAND = 1.0  # byte/s below which a core exerts no pressure


@dataclass(frozen=True)
class ContentionModel:
    """Parameters of the shared-bus contention model.

    Parameters
    ----------
    bandwidth_ceiling_bytes_per_s:
        Aggregate DRAM/FSB bandwidth shared by all cores.  ``None``
        (default) uses the base timing's single-core bus bandwidth --
        i.e. cores share the same front-side bus the single-core model
        already had, which is the Pentium M-era reality.
    latency_slope:
        Gain of the queueing-delay term: miss latency is multiplied by
        ``1 + latency_slope * rho / (1 - rho)`` where ``rho`` is the
        *serviced* external bus utilisation seen by the core.  Demand is
        clipped to what the bus can actually serve before computing
        ``rho`` -- in steady state a saturated bus is 100% busy, not
        1000%, so the queueing penalty stays consistent with the
        bandwidth cap and aggregate traffic saturates *at* the ceiling
        instead of collapsing below it.
    max_utilization:
        Safety cap on ``rho`` so the queueing factor stays finite.
    """

    bandwidth_ceiling_bytes_per_s: float | None = None
    latency_slope: float = 0.25
    max_utilization: float = 0.95

    def __post_init__(self) -> None:
        if (self.bandwidth_ceiling_bytes_per_s is not None
                and self.bandwidth_ceiling_bytes_per_s <= 0):
            raise ExperimentError(
                "bandwidth_ceiling_bytes_per_s must be positive, got "
                f"{self.bandwidth_ceiling_bytes_per_s!r}"
            )
        if self.latency_slope < 0:
            raise ExperimentError(
                f"latency_slope must be >= 0, got {self.latency_slope!r}"
            )
        if not 0.0 < self.max_utilization < 1.0:
            raise ExperimentError(
                "max_utilization must be in (0, 1), got "
                f"{self.max_utilization!r}"
            )

    def ceiling(self, base: MemoryTiming) -> float:
        """The aggregate bandwidth ceiling for ``base`` timing."""
        if self.bandwidth_ceiling_bytes_per_s is not None:
            return self.bandwidth_ceiling_bytes_per_s
        return base.bus_bandwidth_bytes_per_s

    def effective_timings(
        self, base: MemoryTiming, demands: Sequence[float]
    ) -> tuple[MemoryTiming, ...]:
        """Per-core effective memory timing under the advertised demands.

        ``demands[i]`` is core *i*'s uncontended bus traffic in bytes/s
        (zero for idle or finished cores).  Cores with no external
        pressure get ``base`` back *by identity* -- callers rely on
        that for single-core bit-equality.  The values are
        :meth:`effective_scalars`'s.
        """
        return tuple(
            base if scalars is None else replace(
                base,
                dram_latency_ns=scalars[0],
                bus_bandwidth_bytes_per_s=scalars[1],
            )
            for scalars in self.effective_scalars(base, demands)
        )

    def effective_scalars(
        self, base: MemoryTiming, demands: Sequence[float]
    ) -> tuple[tuple[float, float] | None, ...]:
        """Per core, ``None`` under no external pressure (the core keeps
        ``base``), else its contended ``(dram_latency_ns,
        bus_bandwidth_bytes_per_s)``.

        The tick kernel reads these floats without building a
        :class:`MemoryTiming` per core per tick; a value that timing
        would reject raises the same :class:`~repro.errors.ReproError`.
        """
        ceiling = self.ceiling(base)
        total = sum(demands)
        # The bus serves at most `ceiling`; when oversubscribed every
        # core's demand is granted its proportional fraction.
        service = min(1.0, ceiling / total) if total > 0 else 1.0
        lanes: list[tuple[float, float] | None] = []
        for own in demands:
            external = (total - own) * service
            if external <= _EPSILON_DEMAND:
                lanes.append(None)
                continue
            rho = min(external / ceiling, self.max_utilization)
            multiplier = 1.0 + self.latency_slope * rho / (1.0 - rho)
            # What's left of the ceiling once the neighbours' serviced
            # traffic is subtracted: the leftover when undersubscribed,
            # exactly the proportional share when oversubscribed -- so
            # aggregate traffic saturates at the ceiling.
            share = ceiling - external
            if own <= _EPSILON_DEMAND and service < 1.0:
                # No demand, so no proportional share of a saturated
                # bus: a core whose phase starts using the bus competes
                # as one of the equal streams arbitration serves.
                share = ceiling / len(demands)
            latency = base.dram_latency_ns * multiplier
            check_memory_timing(base.l2_latency_cycles, latency, share)
            lanes.append((latency, share))
        return tuple(lanes)
