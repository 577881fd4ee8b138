"""Memory-hierarchy geometry and timing for the Pentium M 755 (Dothan).

Two dataclasses describe the platform:

* :class:`CacheGeometry` -- capacities and line size, used by the
  microbenchmark generators to decide which hierarchy level a given data
  footprint exercises (paper Table I configures MS-Loops at L1-, L2- and
  DRAM-resident footprints).
* :class:`MemoryTiming` -- latencies and bandwidth.  The crucial modelling
  choice: **L1/L2 latencies are in core cycles** (on-chip SRAM is clocked
  with the core, so its cost in cycles is frequency-invariant) while
  **DRAM latency is in nanoseconds** and **bus bandwidth in bytes/second**
  (off-chip resources do not speed up with the core clock).  This split is
  what makes memory-bound workloads insensitive to p-state changes
  (paper Fig. 2) and L2-bound workloads (art) deceptive to the DCU-based
  classifier (paper §IV-B2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.units import KIB, MIB, ns_to_cycles


@dataclass(frozen=True)
class CacheGeometry:
    """Capacities of the on-chip caches and the cache line size."""

    l1d_bytes: int
    l2_bytes: int
    line_bytes: int

    def __post_init__(self) -> None:
        if self.l1d_bytes <= 0 or self.l2_bytes <= 0:
            raise ReproError("cache capacities must be positive")
        if self.l2_bytes < self.l1d_bytes:
            raise ReproError("L2 must be at least as large as L1D")
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ReproError("line size must be a positive power of two")

    def residency_level(self, footprint_bytes: float) -> str:
        """Which hierarchy level a streaming footprint is resident in.

        Returns one of ``"L1"``, ``"L2"`` or ``"DRAM"``.  A footprint is
        considered resident in a level if it fits within ~90% of the
        capacity (leaving room for stack/code lines, as the MS-Loops
        footprints were chosen to do).
        """
        if footprint_bytes <= 0.9 * self.l1d_bytes:
            return "L1"
        if footprint_bytes <= 0.9 * self.l2_bytes:
            return "L2"
        return "DRAM"


@dataclass(frozen=True)
class MemoryTiming:
    """Latency/bandwidth constants of the memory hierarchy.

    Attributes
    ----------
    l2_latency_cycles:
        L1-miss/L2-hit load-to-use penalty in *core cycles* (on-chip,
        scales with frequency in wall-clock terms).
    dram_latency_ns:
        L2-miss load-to-use penalty in *nanoseconds* (off-chip, constant
        in wall-clock terms).
    bus_bandwidth_bytes_per_s:
        Peak sustainable front-side-bus bandwidth (400 MT/s x 8 B for the
        Dothan platform, derated for protocol overhead).
    """

    l2_latency_cycles: float
    dram_latency_ns: float
    bus_bandwidth_bytes_per_s: float

    def __post_init__(self) -> None:
        check_memory_timing(
            self.l2_latency_cycles,
            self.dram_latency_ns,
            self.bus_bandwidth_bytes_per_s,
        )

    def dram_latency_cycles(self, frequency_mhz: float) -> float:
        """DRAM latency expressed in core cycles at ``frequency_mhz``.

        Grows linearly with core frequency: this is why raising the
        p-state does not help DRAM-bound code.
        """
        return ns_to_cycles(self.dram_latency_ns, frequency_mhz)


def check_memory_timing(
    l2_latency_cycles: float,
    dram_latency_ns: float,
    bus_bandwidth_bytes_per_s: float,
) -> None:
    """Raise :class:`ReproError` unless every timing value is positive
    (the :class:`MemoryTiming` invariant, also checked on timings the
    tick kernel keeps as plain floats)."""
    if l2_latency_cycles <= 0:
        raise ReproError("L2 latency must be positive")
    if dram_latency_ns <= 0:
        raise ReproError("DRAM latency must be positive")
    if bus_bandwidth_bytes_per_s <= 0:
        raise ReproError("bus bandwidth must be positive")


#: Pentium M 755 "Dothan": 32 KiB L1D, 2 MiB L2, 64 B lines.
PENTIUM_M_755_GEOMETRY = CacheGeometry(
    l1d_bytes=32 * KIB,
    l2_bytes=2 * MIB,
    line_bytes=64,
)

#: Dothan timing: ~10-cycle L2, ~110 ns load-to-use DRAM latency,
#: 400 MT/s x 8 B FSB derated to ~2.8 GB/s sustainable.
PENTIUM_M_755_TIMING = MemoryTiming(
    l2_latency_cycles=10.0,
    dram_latency_ns=110.0,
    bus_bandwidth_bytes_per_s=2.8e9,
)
