"""Crash-safe resume of experiments, at cell granularity.

The durability layer of the execution engine:

* :mod:`.format` -- the on-disk WAL container (magic, versioned header,
  CRC-checked records, torn-tail tolerance);
* :mod:`.journal` -- :class:`RunJournal`, an append-only fsync'd journal
  directory with an atomic manifest;
* :mod:`.session` -- :class:`ExperimentCheckpointSession`, archiving
  every completed run of an experiment and replaying the archive on
  resume;
* :mod:`.digest` -- :func:`run_result_digest`, float-exact digests the
  chaos harness compares across process boundaries.

An experiment archives every run made under
``open_session(checkpoint=session)``, however deep below the session
the run is started.

The contract (see README "Crash safety & resume"): an experiment killed
at any instant and resumed from its journal prints the same output as
the uninterrupted experiment, and archives bit-identical
:class:`~repro.core.controller.RunResult` objects.  A run interrupted
mid-loop reruns from scratch; runs are deterministic, so the rerun
gives the same result.
"""

from repro.checkpoint.digest import run_result_digest
from repro.checkpoint.format import (
    JOURNAL_FORMAT_VERSION,
    SUPPORTED_JOURNAL_FORMATS,
    JournalRecord,
)
from repro.checkpoint.journal import (
    RunJournal,
    read_manifest,
    write_manifest,
)
from repro.checkpoint.session import ExperimentCheckpointSession

__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "SUPPORTED_JOURNAL_FORMATS",
    "JournalRecord",
    "RunJournal",
    "ExperimentCheckpointSession",
    "read_manifest",
    "write_manifest",
    "run_result_digest",
]
