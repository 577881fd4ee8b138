"""Crash-safe execution of whole experiments, at cell granularity.

An experiment is a deterministic sequence of runs (every
:func:`~repro.exec.core.execute_cell` call), so checkpointing one only
needs its completed runs: they are archived, in call order, into a
results WAL (``results.journal``), and replaying slot *k* returns the
archived :class:`~repro.core.controller.RunResult` without
re-executing.

On resume the experiment module simply re-executes: archived slots
replay instantly (the claim counter advances in the same deterministic
call order), and the interrupted slot and every later one run fresh --
producing exactly the results an uninterrupted invocation would have.

Each archive record also carries the telemetry metrics registry at
archive time, so a resumed experiment's final ``metrics.json`` matches
the uninterrupted one.
"""

from __future__ import annotations

import os
import pickle

from repro.checkpoint.journal import RunJournal
from repro.errors import CheckpointError
from repro.telemetry.recorder import TelemetryRecorder

RESULTS_FILENAME = "results.journal"


class ExperimentCheckpointSession:
    """Checkpoint/replay state for one experiment invocation."""

    def __init__(
        self,
        results_journal: RunJournal,
        telemetry: TelemetryRecorder | None = None,
    ):
        self._results = results_journal
        self.directory = results_journal.directory
        self._telemetry = telemetry
        self._next_slot = 0
        self._replayed = 0
        self._archived: dict[int, object] = {}

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: str | os.PathLike,
        experiment: str,
        spec: dict | None = None,
        telemetry: TelemetryRecorder | None = None,
    ) -> "ExperimentCheckpointSession":
        """Start a fresh session for ``experiment`` in ``directory``."""
        journal = RunJournal.create(
            directory,
            kind="experiment",
            spec=dict(spec or {}, experiment=experiment),
            filename=RESULTS_FILENAME,
        )
        return cls(journal, telemetry)

    @classmethod
    def open(
        cls,
        directory: str | os.PathLike,
        telemetry: TelemetryRecorder | None = None,
    ) -> "ExperimentCheckpointSession":
        """Resume a session: load archived results, restore metrics."""
        journal = RunJournal.open(directory, filename=RESULTS_FILENAME)
        if journal.kind != "experiment":
            raise CheckpointError(
                f"journal {journal.directory} checkpoints a "
                f"{journal.kind!r}, not an experiment"
            )
        session = cls(journal, telemetry)
        session._load_archive()
        return session

    def _load_archive(self) -> None:
        last_metrics = None
        for record in self._results.records():
            try:
                entry = pickle.loads(record.payload)
            except Exception:  # noqa: BLE001 - treat like a torn tail
                break
            self._archived[record.tick] = entry["result"]
            if entry.get("metrics") is not None:
                last_metrics = entry["metrics"]
        tel = self._telemetry
        if tel is not None and tel.enabled and last_metrics is not None:
            # Metrics accumulated by already-archived runs: replays skip
            # re-execution, so the registry is restored wholesale.
            tel.metrics = last_metrics
        self._results.open_for_append()

    @property
    def experiment(self) -> str:
        """The experiment id recorded at creation."""
        return str(self._results.spec.get("experiment", "?"))

    @property
    def spec(self) -> dict:
        """The creator-supplied spec (experiment id, scale, ...)."""
        return self._results.spec

    @property
    def archived_count(self) -> int:
        """Completed runs already durable on disk."""
        return len(self._archived)

    @property
    def replayed(self) -> int:
        """Slots served from the archive so far this process."""
        return self._replayed

    def close(self) -> None:
        """Close the results WAL (idempotent)."""
        self._results.close()

    def __enter__(self) -> "ExperimentCheckpointSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- slots -----------------------------------------------------------------

    def claim(self) -> int:
        """Claim the next run slot (deterministic call order)."""
        slot = self._next_slot
        self._next_slot += 1
        return slot

    def archived(self, slot: int):
        """The archived result for ``slot`` (None if not completed)."""
        result = self._archived.get(slot)
        if result is not None:
            self._replayed += 1
        return result

    def finish_slot(
        self,
        slot: int,
        result,
        telemetry: TelemetryRecorder | None = None,
    ) -> None:
        """Durably archive slot ``slot``'s result."""
        tel = telemetry
        metrics = (
            tel.metrics if (tel is not None and tel.enabled) else None
        )
        payload = pickle.dumps(
            {"result": result, "metrics": metrics},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._results.append(slot, payload)
        self._archived[slot] = result
