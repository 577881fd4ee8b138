"""Simulated Pentium M 755 platform substrate.

The paper prototypes on real hardware: a Pentium M 755 (90 nm Dothan) on a
Radisys board with sense resistors and a National Instruments DAQ.  This
subpackage is the software stand-in for that hardware:

* :mod:`repro.platform.events`    -- performance-monitoring event menu,
* :mod:`repro.platform.caches`    -- L1/L2/DRAM geometry and timing,
* :mod:`repro.platform.pipeline`  -- analytical per-cycle rate resolution,
* :mod:`repro.platform.leakage`   -- voltage-dependent leakage power,
* :mod:`repro.platform.power`     -- component-level ground-truth power,
* :mod:`repro.platform.dvfs`      -- p-state transition state machine,
* :mod:`repro.platform.machine`   -- the assembled machine's state.

The substitution argument (see DESIGN.md §2): the paper's results follow
from two first-order physical facts -- DRAM latency is constant in
nanoseconds while core work is constant in cycles, and CMOS power scales
as ``alpha*C*V^2*f`` plus voltage-dependent leakage.  Both are modelled
directly and calibrated against the paper's own measured tables
(Table II coefficients, Table III worst-case power).
"""

from repro.platform.caches import CacheGeometry, MemoryTiming, PENTIUM_M_755_GEOMETRY, PENTIUM_M_755_TIMING
from repro.platform.pipeline import ResolvedRates, resolve_rates
from repro.platform.power import PowerModelConstants, ground_truth_power, PENTIUM_M_755_POWER


def __getattr__(name):
    # Machine pulls in the driver layer, which itself imports
    # repro.platform.events -- importing it lazily keeps this package's
    # import acyclic while preserving `from repro.platform import Machine`.
    if name in ("Machine", "MachineConfig"):
        from repro.platform import machine

        return getattr(machine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CacheGeometry",
    "MemoryTiming",
    "PENTIUM_M_755_GEOMETRY",
    "PENTIUM_M_755_TIMING",
    "ResolvedRates",
    "resolve_rates",
    "PowerModelConstants",
    "ground_truth_power",
    "PENTIUM_M_755_POWER",
    "Machine",
    "MachineConfig",
]
