"""Advance a bare PMU by whole counts, as the tick kernel's write-back does.

Tests of the samplers and the fault wrappers need counters that moved by
a known amount.  The tick kernel (:func:`repro.core.blockloop.run_fast`)
is the only code that advances a real machine's counters; between runs
the samplers read what it stored: the PMU's cycle count, the TSC and
the two PMC registers.  :func:`advance` writes that same state directly.
"""

from repro.drivers.msr import IA32_PMC0, IA32_PMC1, IA32_TIME_STAMP_COUNTER
from repro.platform.events import COUNTER_WIDTH_BITS

_COUNTER_MASK = (1 << COUNTER_WIDTH_BITS) - 1
_TSC_MASK = (1 << 64) - 1


def advance(pmu, cycles, counts=None):
    """Add ``cycles`` unhalted cycles, and ``counts[event]`` whole events
    to the counter programmed with each event, wrapping like the part."""
    msr = pmu._msr
    pmu._cycles += cycles
    msr.poke(
        IA32_TIME_STAMP_COUNTER,
        (msr.rdmsr(IA32_TIME_STAMP_COUNTER) + cycles) & _TSC_MASK,
    )
    for counter, address in enumerate((IA32_PMC0, IA32_PMC1)):
        count = (counts or {}).get(pmu.configured_event(counter), 0)
        msr.poke(address, (msr.rdmsr(address) + count) & _COUNTER_MASK)
