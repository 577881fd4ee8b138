"""Governor interface: the Control phase of the three-phase loop.

A governor consumes one :class:`~repro.core.sampling.CounterSample` per
10 ms tick and returns the p-state for the next tick.  It declares which
PMU events it needs so the controller can program the two counters --
keeping each policy honest about the hardware monitoring budget.
"""

from __future__ import annotations

import abc

from repro.acpi.pstates import PState, PStateTable
from repro.core.sampling import CounterSample
from repro.platform.events import Event


class Governor(abc.ABC):
    """Base class for p-state selection policies."""

    def __init__(self, table: PStateTable):
        self.table = table

    @property
    @abc.abstractmethod
    def events(self) -> tuple[Event, ...]:
        """PMU events this governor needs (at most two)."""

    @abc.abstractmethod
    def decide(self, sample: CounterSample, current: PState) -> PState:
        """Choose the p-state for the next interval."""

    def reset(self) -> None:
        """Clear any internal hysteresis/adaptation state between runs."""

    @property
    def name(self) -> str:
        """Display name used in traces and reports."""
        return type(self).__name__
