"""Runtime constraint changes (the paper's SIGUSR1/SIGUSR2 mechanism).

The PM prototype "can receive a new power limit at any instant
(implemented as a Unix signal ... delivered to the process), effective
immediately" (§IV-A1).  In the simulated run loop there is no process to
signal, so a :class:`ConstraintSchedule` carries timestamped changes that
the controller delivers between ticks -- same semantics, deterministic
timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

from repro.errors import GovernorError


@dataclass(frozen=True)
class ScheduledChange:
    """One constraint change: at ``time_s``, call ``apply(governor)``."""

    time_s: float
    apply: Callable[[object], None]
    label: str = ""


@dataclass(frozen=True)
class _SetPowerLimit:
    """Picklable "set the PM power limit" action (ships to pool workers)."""

    watts: float

    def __call__(self, governor) -> None:
        governor.set_power_limit(self.watts)


@dataclass(frozen=True)
class _SetPerformanceFloor:
    """Picklable "set the PS performance floor" action (ships to workers)."""

    floor: float

    def __call__(self, governor) -> None:
        governor.set_floor(self.floor)


@dataclass
class ConstraintSchedule:
    """An ordered queue of runtime constraint changes."""

    changes: List[ScheduledChange] = field(default_factory=list)

    def add_power_limit(self, time_s: float, watts: float) -> None:
        """Schedule a PM power-limit change (the SIGUSR analogue)."""
        if time_s < 0:
            raise GovernorError("schedule times must be non-negative")
        self.changes.append(
            ScheduledChange(
                time_s,
                _SetPowerLimit(watts),
                label=f"power_limit={watts}W",
            )
        )
        self.changes.sort(key=lambda c: c.time_s)

    def add_performance_floor(self, time_s: float, floor: float) -> None:
        """Schedule a PS performance-floor change."""
        if time_s < 0:
            raise GovernorError("schedule times must be non-negative")
        self.changes.append(
            ScheduledChange(
                time_s,
                _SetPerformanceFloor(floor),
                label=f"floor={floor}",
            )
        )
        self.changes.sort(key=lambda c: c.time_s)

    def due(self, now_s: float, delivered: int) -> tuple[ScheduledChange, ...]:
        """Changes due at ``now_s`` that have not been delivered yet.

        ``delivered`` is the count of already-applied changes (the
        controller tracks it); the schedule itself stays immutable
        during a run so it can be reused across the paper's median-of-3
        repetitions.
        """
        return tuple(c for c in self.changes[delivered:] if c.time_s <= now_s)
