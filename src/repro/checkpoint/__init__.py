"""Crash-safe checkpoint/resume for runs and experiments.

The durability layer of the power-management loop:

* :mod:`.format` -- the on-disk WAL container (magic, versioned header,
  CRC-checked records, torn-tail tolerance);
* :mod:`.journal` -- :class:`RunJournal`, a size-bounded fsync'd journal
  directory with an atomic manifest;
* :mod:`.snapshot` -- pickled snapshots of the live loop state and the
  :class:`RunCheckpointer` the controller calls every N ticks;
* :mod:`.resume` -- :func:`resume_run`, reconstructing an interrupted
  run bit-identically;
* :mod:`.session` -- :class:`ExperimentCheckpointSession`, replaying
  archived runs and resuming the interrupted one for whole experiments;
* :mod:`.digest` -- :func:`run_result_digest`, float-exact digests the
  chaos harness compares across process boundaries.

An experiment checkpoints every run made under
``open_session(checkpoint=session)``, however deep below the session
the run is started.

The contract (see README "Crash safety & resume"): a run killed at any
instant and resumed from its journal finishes with a
:class:`~repro.core.controller.RunResult` bit-identical to the
uninterrupted run's, and identical final metrics values.
"""

from repro.checkpoint.digest import run_result_digest
from repro.checkpoint.format import (
    JOURNAL_FORMAT_VERSION,
    SUPPORTED_JOURNAL_FORMATS,
    JournalRecord,
)
from repro.checkpoint.journal import (
    DEFAULT_MAX_JOURNAL_BYTES,
    RunJournal,
    read_manifest,
    write_manifest,
)
from repro.checkpoint.resume import load_run_state, resume_run
from repro.checkpoint.session import ExperimentCheckpointSession
from repro.checkpoint.snapshot import (
    PAYLOAD_VERSION,
    RunCheckpointer,
    decode_snapshot,
    encode_snapshot,
)

__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "SUPPORTED_JOURNAL_FORMATS",
    "PAYLOAD_VERSION",
    "DEFAULT_MAX_JOURNAL_BYTES",
    "JournalRecord",
    "RunJournal",
    "RunCheckpointer",
    "ExperimentCheckpointSession",
    "encode_snapshot",
    "decode_snapshot",
    "read_manifest",
    "write_manifest",
    "load_run_state",
    "resume_run",
    "run_result_digest",
]
