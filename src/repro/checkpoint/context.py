"""Process-local checkpoint session, mirroring ``recording()`` et al.

Experiment modules reach :func:`repro.exec.core.execute_cell` many
layers below the CLI, so the session travels ambiently -- exactly
like the telemetry recorder (:func:`repro.telemetry.recording`), the
fault plan (:func:`repro.faults.injecting`) and the adaptation config
(:func:`repro.adaptation.adapting`)::

    with checkpointing(session):
        module.run(config)   # every execute_cell() call checkpoints

The default is ``None`` (no checkpointing).
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.checkpoint.session import ExperimentCheckpointSession

_current: "ExperimentCheckpointSession | None" = None


def current_checkpoint_session() -> "ExperimentCheckpointSession | None":
    """The session installed by :func:`checkpointing` (or ``None``)."""
    return _current


def set_checkpoint_session(
    session: "ExperimentCheckpointSession | None",
) -> None:
    """Install (or clear, with ``None``) the current session."""
    global _current
    _current = session


@contextlib.contextmanager
def checkpointing(
    session: "ExperimentCheckpointSession | None",
) -> Iterator["ExperimentCheckpointSession | None"]:
    """Temporarily install ``session`` as the current session."""
    previous = current_checkpoint_session()
    set_checkpoint_session(session)
    try:
        yield session
    finally:
        set_checkpoint_session(previous)
