"""Fixed-frequency anchor governors.

``FixedFrequency(table, 2000)`` is the paper's unconstrained full-speed
reference (the denominator of all normalized-performance numbers);
``FixedFrequency(table, 600)`` is the maximum-savings bound used to sort
the paper's Figs. 10/11.  :class:`EventProbe` pins a p-state too and
monitors the events its caller chooses (model characterization).
"""

from __future__ import annotations

from typing import Sequence

from repro.acpi.pstates import PState, PStateTable
from repro.core.governors.base import Governor
from repro.core.sampling import CounterSample
from repro.platform.events import Event


class FixedFrequency(Governor):
    """Stays at one p-state forever."""

    def __init__(self, table: PStateTable, frequency_mhz: float):
        super().__init__(table)
        self._pstate = table.by_frequency(frequency_mhz)

    @classmethod
    def fastest(cls, table: PStateTable) -> "FixedFrequency":
        """Unconstrained operation at P0 (the paper's 2000 MHz runs)."""
        return cls(table, table.fastest.frequency_mhz)

    @classmethod
    def slowest(cls, table: PStateTable) -> "FixedFrequency":
        """Minimum frequency (the paper's 600 MHz savings bound)."""
        return cls(table, table.slowest.frequency_mhz)

    @property
    def pstate(self) -> PState:
        """The pinned operating point."""
        return self._pstate

    @property
    def events(self) -> tuple[Event, ...]:
        return (Event.INST_RETIRED,)

    def decide(self, sample: CounterSample, current: PState) -> PState:
        return self._pstate

    @property
    def name(self) -> str:
        return f"Fixed@{self._pstate.frequency_mhz:.0f}MHz"


class EventProbe(FixedFrequency):
    """Stays at one p-state and monitors the caller's ``events``.

    The characterization runs -- MS-Loops training (paper §III-A) and
    per-sample model accuracy -- read counters at a pinned p-state.  As
    a subclass of :class:`FixedFrequency` a probe runs in the tick
    kernel's hook mode, so every tick's trace row carries the sample of
    all its events.
    """

    def __init__(
        self, table: PStateTable, frequency_mhz: float,
        events: Sequence[Event],
    ):
        super().__init__(table, frequency_mhz)
        self._events = tuple(events)

    @property
    def events(self) -> tuple[Event, ...]:
        return self._events
