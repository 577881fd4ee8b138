"""Process-local ambient adaptation config (mirrors ``faults.injecting``).

The CLI's ``experiment --adapt`` must enable online adaptation for runs
made deep inside experiment modules without threading a manager through
every driver signature.  :func:`adapting` installs an
:class:`~repro.adaptation.manager.AdaptationConfig` process-locally;
:func:`repro.exec.core.execute_cell` picks it up and builds a
fresh :class:`~repro.adaptation.manager.AdaptationManager` per run, so
repetitions adapt independently and reproducibly.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.adaptation.manager import AdaptationConfig

_current: AdaptationConfig | None = None


def current_adaptation_config() -> AdaptationConfig | None:
    """The ambient config installed by :func:`adapting` (None = off)."""
    return _current


def set_adaptation_config(config: AdaptationConfig | None) -> None:
    """Install (or clear, with ``None``) the ambient adaptation config."""
    global _current
    _current = config


@contextlib.contextmanager
def adapting(config: AdaptationConfig | None) -> Iterator[
    AdaptationConfig | None
]:
    """Temporarily install ``config`` as the ambient adaptation config."""
    previous = current_adaptation_config()
    set_adaptation_config(config)
    try:
        yield config
    finally:
        set_adaptation_config(previous)
