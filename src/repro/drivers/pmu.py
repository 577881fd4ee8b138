"""Simulated Pentium M performance-monitoring unit (PMU).

The Pentium M has exactly **two** programmable 40-bit counters, each
driven by an event-select register choosing among ~92 EMON events (paper
§III-B).  The two-counter budget is a real design constraint the paper
leans on: PerformanceMaximizer needs only ``INST_DECODED``;
PowerSave needs ``INST_RETIRED`` + ``DCU_MISS_OUTSTANDING`` -- both fit.
Policies that want more events must *multiplex* (rotate event sets across
sampling periods, as Isci et al. do on the Pentium 4); an
:class:`EventMultiplexer` is provided for such extensions.

The counters advance in the tick kernel
(:func:`repro.core.blockloop.run_fast`), which carries the cycle count,
the fractional count residuals and the PMC/TSC registers as locals and
writes them back when it returns.  Counters wrap at 2^40 like the real
hardware; :class:`CounterSnapshot` handles wrap-aware deltas, and the
sampling layer is tested against wrap events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.drivers.msr import (
    IA32_PERFEVTSEL0,
    IA32_PERFEVTSEL1,
    IA32_PMC0,
    IA32_PMC1,
    IA32_TIME_STAMP_COUNTER,
    MSRFile,
)
from repro.errors import PMUError
from repro.platform.events import (
    COUNTER_WIDTH_BITS,
    Event,
    NUM_PROGRAMMABLE_COUNTERS,
    REAL_PMU_EVENT_MENU_SIZE,
)

_COUNTER_MASK = (1 << COUNTER_WIDTH_BITS) - 1
_EVTSEL_ADDRESSES = (IA32_PERFEVTSEL0, IA32_PERFEVTSEL1)
_PMC_ADDRESSES = (IA32_PMC0, IA32_PMC1)

#: Enable bit in the event-select register (bit 22 on real hardware).
_EVTSEL_ENABLE = 1 << 22

@dataclass(frozen=True)
class CounterSnapshot:
    """A point-in-time read of the PMU state.

    Captures both programmable counters, the cycle count and the TSC so
    that rates can be formed from wrap-aware deltas.
    """

    events: tuple[Event | None, Event | None]
    values: tuple[int, int]
    cycles: int
    tsc: int

    def delta(self, later: "CounterSnapshot") -> tuple[float, float, float]:
        """(count0, count1, cycles) elapsed between self and ``later``.

        Handles single wrap-around of the 40-bit counters; raises if the
        configured events changed between the snapshots (the delta would
        be meaningless).
        """
        if self.events != later.events:
            raise PMUError(
                "counter events were reprogrammed between snapshots: "
                f"{self.events} -> {later.events}"
            )
        counts = []
        for before, after in zip(self.values, later.values):
            diff = (after - before) & _COUNTER_MASK
            counts.append(float(diff))
        cycles = (later.cycles - self.cycles) & _COUNTER_MASK
        return counts[0], counts[1], float(cycles)


class PMU:
    """The two-counter programmable performance monitoring unit."""

    #: Exposed for documentation parity with the real part.
    EVENT_MENU_SIZE = REAL_PMU_EVENT_MENU_SIZE
    NUM_COUNTERS = NUM_PROGRAMMABLE_COUNTERS

    def __init__(self, msr: MSRFile):
        self._msr = msr
        self._events: list[Event | None] = [None, None]
        # Hardware-side state: the tick kernel loads these (and the
        # PMC/TSC registers) into locals and stores them back.
        self._cycles: int = 0
        self._cycle_residual: float = 0.0
        self._residuals: list[float] = [0.0, 0.0]
        for addr in (*_EVTSEL_ADDRESSES, *_PMC_ADDRESSES):
            msr.map_register(addr, 0)
        if not msr.is_mapped(IA32_TIME_STAMP_COUNTER):
            msr.map_register(IA32_TIME_STAMP_COUNTER, 0, writable=False)

    # -- driver-facing API ---------------------------------------------------

    def program(self, counter: int, event: Event) -> None:
        """Program ``counter`` (0 or 1) to count ``event``.

        Writing the event-select register clears the counter, as the
        paper's monitoring driver does on reconfiguration.
        """
        self._check_counter(counter)
        if not isinstance(event, Event):
            raise PMUError(f"unknown event {event!r}")
        self._msr.wrmsr(_EVTSEL_ADDRESSES[counter], event.code | _EVTSEL_ENABLE)
        self._msr.wrmsr(_PMC_ADDRESSES[counter], 0)
        self._residuals[counter] = 0.0
        self._events[counter] = event

    def program_events(self, events: Sequence[Event]) -> None:
        """Program both counters at once.

        Raises :class:`PMUError` when more events are requested than the
        hardware has counters -- the constraint that motivates the
        paper's "small number of counters" design point.
        """
        if len(events) > self.NUM_COUNTERS:
            raise PMUError(
                f"requested {len(events)} events but the Pentium M has "
                f"only {self.NUM_COUNTERS} programmable counters; "
                "use an EventMultiplexer"
            )
        for index, event in enumerate(events):
            self.program(index, event)
        for index in range(len(events), self.NUM_COUNTERS):
            self.disable(index)

    def disable(self, counter: int) -> None:
        """Stop counting on ``counter``."""
        self._check_counter(counter)
        self._msr.wrmsr(_EVTSEL_ADDRESSES[counter], 0)
        self._events[counter] = None

    def configured_event(self, counter: int) -> Event | None:
        """The event currently selected on ``counter`` (None if disabled)."""
        self._check_counter(counter)
        return self._events[counter]

    def read(self, counter: int) -> int:
        """Raw 40-bit counter value."""
        self._check_counter(counter)
        return self._msr.rdmsr(_PMC_ADDRESSES[counter])

    def snapshot(self) -> CounterSnapshot:
        """Atomically capture both counters, the cycle count and TSC."""
        return CounterSnapshot(
            events=(self._events[0], self._events[1]),
            values=(self.read(0), self.read(1)),
            cycles=self._cycles & _COUNTER_MASK,
            tsc=self._msr.rdmsr(IA32_TIME_STAMP_COUNTER),
        )

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _check_counter(counter: int) -> None:
        if counter not in (0, 1):
            raise PMUError(
                f"counter index {counter} out of range; the Pentium M has "
                f"counters 0 and 1 only"
            )


class EventMultiplexer:
    """Rotates groups of events through the two physical counters.

    Extension utility (not used by PM/PS, which fit in two counters):
    policies needing more than two events program one *group* per
    sampling period and scale counts by the duty cycle, the standard
    counter-rotation technique (Isci et al., cited in the paper's related
    work).
    """

    def __init__(self, pmu: PMU, groups: Sequence[Sequence[Event]]):
        if not groups:
            raise PMUError("multiplexer needs at least one event group")
        for group in groups:
            if len(group) > PMU.NUM_COUNTERS:
                raise PMUError(
                    f"group {list(group)} exceeds the two-counter budget"
                )
        self._pmu = pmu
        self._groups = [tuple(g) for g in groups]
        self._index = -1

    @property
    def duty_cycle(self) -> float:
        """Fraction of time each group is actually counted."""
        return 1.0 / len(self._groups)

    @property
    def current_group(self) -> tuple[Event, ...]:
        """The group programmed by the last :meth:`rotate` call."""
        if self._index < 0:
            raise PMUError("multiplexer has not been rotated yet")
        return self._groups[self._index]

    def rotate(self) -> tuple[Event, ...]:
        """Program the next group and return it."""
        self._index = (self._index + 1) % len(self._groups)
        group = self._groups[self._index]
        self._pmu.program_events(group)
        return group

    def scale(self, count: float) -> float:
        """Extrapolate a counted value to the full interval."""
        return count / self.duty_cycle
