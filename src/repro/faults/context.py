"""Process-local ambient fault plan (mirrors ``telemetry.recording``).

The CLI's ``experiment --faults SPEC`` must inject into runs made deep
inside experiment modules without threading an injector through every
driver signature.  :func:`injecting` installs a plan process-locally;
:func:`repro.exec.core.execute_cell` picks it up and builds a
fresh, identically seeded :class:`~repro.faults.injector.FaultInjector`
per run -- so every run of an experiment sees the same reproducible
fault sequence.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.faults.plan import FaultPlan

_current: FaultPlan | None = None


def current_fault_plan() -> FaultPlan | None:
    """The ambient plan installed by :func:`injecting` (None = no faults)."""
    return _current


def set_fault_plan(plan: FaultPlan | None) -> None:
    """Install (or clear, with ``None``) the ambient fault plan."""
    global _current
    _current = plan


@contextlib.contextmanager
def injecting(plan: FaultPlan | None) -> Iterator[FaultPlan | None]:
    """Temporarily install ``plan`` as the ambient fault plan."""
    previous = current_fault_plan()
    set_fault_plan(plan)
    try:
        yield plan
    finally:
        set_fault_plan(previous)
