"""Small unit-conversion helpers used throughout the package.

Internally the package works in a fixed set of base units:

* frequency  -- megahertz (``float``), because ACPI p-states are specified
  in MHz and the paper's tables are in MHz,
* voltage    -- volts,
* power      -- watts,
* energy     -- joules,
* time       -- seconds (with millisecond helpers because the paper's
  sampling interval is 10 ms),
* memory     -- bytes.

The helpers exist so call sites read unambiguously (``mhz_to_ghz(f)``
rather than ``f / 1000.0``) and so the conversions are tested once.
"""

from __future__ import annotations

#: Number of bytes in one kibibyte / mebibyte (cache sizes use binary units).
KIB = 1024
MIB = 1024 * 1024

#: Seconds per millisecond / microsecond.
MS = 1e-3
US = 1e-6
NS = 1e-9


def mhz_to_hz(freq_mhz: float) -> float:
    """Convert a frequency in MHz to Hz."""
    return freq_mhz * 1e6


def mhz_to_ghz(freq_mhz: float) -> float:
    """Convert a frequency in MHz to GHz."""
    return freq_mhz * 1e-3


def ghz_to_mhz(freq_ghz: float) -> float:
    """Convert a frequency in GHz to MHz."""
    return freq_ghz * 1e3


def ns_to_cycles(latency_ns: float, freq_mhz: float) -> float:
    """Convert a wall-clock latency in nanoseconds to core cycles.

    This conversion is the analytical heart of the reproduction: DRAM
    latency is (to first order) constant in nanoseconds, so the number of
    *cycles* a core waits for memory grows linearly with core frequency.
    That is why memory-bound workloads gain little from higher p-states
    (paper, Fig. 2).
    """
    return latency_ns * NS * mhz_to_hz(freq_mhz)


def cycles_to_seconds(cycles: float, freq_mhz: float) -> float:
    """Convert a cycle count at ``freq_mhz`` to seconds."""
    return cycles / mhz_to_hz(freq_mhz)


def seconds_to_cycles(seconds: float, freq_mhz: float) -> float:
    """Convert a duration in seconds to cycles at ``freq_mhz``."""
    return seconds * mhz_to_hz(freq_mhz)


def joules(power_watts: float, seconds: float) -> float:
    """Energy in joules for constant power over a duration."""
    return power_watts * seconds


def watt_seconds_to_joules(watt_seconds: float) -> float:
    """Alias conversion: one watt-second is one joule."""
    return watt_seconds
