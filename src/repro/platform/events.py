"""Performance-monitoring event menu for the simulated Pentium M.

The real Pentium M exposes 92 configurable EMON events on two programmable
counters.  We implement the subset that the paper's methodology and our
experiments use (plus the common architectural events), each with its real
event-select code where documented.  The PMU driver
(:mod:`repro.drivers.pmu`) rejects selections outside this menu, exactly
as a real driver rejects undocumented event codes.

Event *rates* (per unhalted cycle) are produced by the pipeline model
(:mod:`repro.platform.pipeline`); this module only names them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Event(enum.Enum):
    """Monitorable events (name -> EMON event-select code)."""

    #: Unhalted core clock cycles (time base for all rates).
    CPU_CLK_UNHALTED = 0x79
    #: Instructions decoded, including speculative/wrong-path decode.
    #: This is the paper's DPC numerator -- chosen over retired
    #: instructions because speculative activity burns power too
    #: (paper §III-A1, citing Bircher).
    INST_DECODED = 0xD0
    #: Instructions architecturally retired.
    INST_RETIRED = 0xC0
    #: Micro-ops retired.
    UOPS_RETIRED = 0xC2
    #: All data memory references (loads + stores).
    DATA_MEM_REFS = 0x43
    #: Lines brought into the L1 data cache (DCU).
    DCU_LINES_IN = 0x45
    #: Cycles in which at least one DCU miss is outstanding.  The paper's
    #: DCU/IPC memory-boundedness metric uses this event (§III-A2).
    DCU_MISS_OUTSTANDING = 0x48
    #: L2 cache requests of all types.
    L2_RQSTS = 0x2E
    #: Lines allocated into the L2.
    L2_LINES_IN = 0x24
    #: Memory bus transactions (DRAM traffic).
    BUS_TRAN_MEM = 0x6F
    #: Cycles the data bus is busy transferring data.
    BUS_DRDY_CLOCKS = 0x62
    #: Cycles stalled on resource availability (ROB/RS full, etc.).
    RESOURCE_STALLS = 0xA2
    #: Floating-point computational micro-ops executed.
    FP_COMP_OPS_EXE = 0x10
    #: Branch instructions decoded.
    BR_INST_DECODED = 0xE0
    #: Branch instructions retired.
    BR_INST_RETIRED = 0xC4
    #: Mispredicted branches retired.
    BR_MISPRED_RETIRED = 0xC5
    #: Instruction-fetch-unit memory stall cycles.
    IFU_MEM_STALL = 0x86
    #: Lines fetched by the hardware prefetcher.
    PREFETCH_LINES_IN = 0xF0

    @property
    def code(self) -> int:
        """The EMON event-select code written to the PerfEvtSel MSR."""
        return self.value


#: Number of events the real Pentium M PMU can select among (paper §III-B).
#: We implement the power-management-relevant subset above; the PMU driver
#: reports this figure for documentation parity.
REAL_PMU_EVENT_MENU_SIZE = 92

#: Number of simultaneously programmable counters on the Pentium M.
NUM_PROGRAMMABLE_COUNTERS = 2

#: Width of each programmable counter in bits (overflow behaviour).
COUNTER_WIDTH_BITS = 40


@dataclass(frozen=True)
class EventRates:
    """Per-unhalted-cycle rates for every implemented event.

    The machine fills one of these per tick from the pipeline model; the
    PMU driver multiplies rates by elapsed cycles to advance its counters.
    All fields are events per cycle.
    """

    inst_decoded: float
    inst_retired: float
    uops_retired: float
    data_mem_refs: float
    dcu_lines_in: float
    dcu_miss_outstanding: float
    l2_rqsts: float
    l2_lines_in: float
    bus_tran_mem: float
    bus_drdy_clocks: float
    resource_stalls: float
    fp_comp_ops_exe: float
    br_inst_decoded: float
    br_inst_retired: float
    br_mispred_retired: float
    ifu_mem_stall: float
    prefetch_lines_in: float

    def rate(self, event: Event) -> float:
        """Rate for ``event`` in events per unhalted cycle."""
        if event is Event.CPU_CLK_UNHALTED:
            return 1.0
        return getattr(self, event.name.lower())
