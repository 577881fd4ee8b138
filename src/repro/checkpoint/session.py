"""Crash-safe execution of whole experiments.

An experiment is a deterministic sequence of runs (every
:func:`~repro.exec.core.execute_cell` call), so checkpointing
one needs two layers:

* **completed runs** are archived, in call order, into a results WAL
  (``results.journal``): replaying slot *k* returns the archived
  :class:`~repro.core.controller.RunResult` without re-executing;
* the **in-flight run** checkpoints into its own ``run-<slot>/``
  journal, resumable mid-loop via :func:`repro.checkpoint.resume_run`.

On resume the experiment module simply re-executes: archived slots
replay instantly (the claim counter advances in the same deterministic
call order), the interrupted slot resumes from its last checkpoint, and
later slots run fresh -- producing exactly the results an uninterrupted
invocation would have.

Each archive record also carries the telemetry metrics registry at
archive time, so a resumed experiment's final ``metrics.json`` matches
the uninterrupted one even when the kill lands between two runs.
"""

from __future__ import annotations

import os
import pickle
import shutil

from repro.checkpoint.journal import RunJournal
from repro.checkpoint.resume import resume_run
from repro.checkpoint.snapshot import RunCheckpointer
from repro.errors import CheckpointError, NoSnapshotError
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
        interval_ticks: int = 250,
        telemetry: TelemetryRecorder | None = None,
    ) -> "ExperimentCheckpointSession":
        """Start a fresh session for ``experiment`` in ``directory``."""
        journal = RunJournal.create(
            directory,
            kind="experiment",
            spec=dict(spec or {}, experiment=experiment),
            interval_ticks=interval_ticks,
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
    def interval_ticks(self) -> int:
        """Checkpoint cadence for in-flight runs."""
        return self._results.interval_ticks

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

    def _run_directory(self, slot: int) -> str:
        return os.path.join(self.directory, f"run-{slot:04d}")

    def resume_slot(self, slot: int, telemetry: TelemetryRecorder | None):
        """Resume slot ``slot``'s interrupted run, or None to run fresh."""
        run_dir = self._run_directory(slot)
        if not os.path.isdir(run_dir):
            return None
        try:
            result, _state = resume_run(run_dir, telemetry=telemetry)
        except NoSnapshotError:
            return None
        return result

    def start_slot(
        self, slot: int, workload: str, governor: str
    ) -> RunCheckpointer:
        """Open slot ``slot``'s run journal and return its checkpointer."""
        journal = RunJournal.create(
            self._run_directory(slot),
            kind="run",
            spec={"workload": workload, "governor": governor,
                  "slot": slot, "experiment": self.experiment},
            interval_ticks=self.interval_ticks,
        )
        return RunCheckpointer(journal)

    def finish_slot(
        self,
        slot: int,
        result,
        telemetry: TelemetryRecorder | None = None,
        checkpointer: RunCheckpointer | None = None,
    ) -> None:
        """Durably archive slot ``slot``'s result; retire its run journal."""
        if checkpointer is not None:
            checkpointer.journal.close()
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
        shutil.rmtree(self._run_directory(slot), ignore_errors=True)
