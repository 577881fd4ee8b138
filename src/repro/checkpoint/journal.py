"""The journal: one directory holding a manifest + a write-ahead log.

Layout::

    DIR/
      manifest.json   # format version, what is being journaled (spec)
      run.journal     # write-ahead log of records (the file name varies)

:class:`~repro.checkpoint.session.ExperimentCheckpointSession` keeps
its results WAL here, and ``run --checkpoint`` writes just the
manifest, whose spec ``run --resume`` reruns.  The manifest is written
atomically before the first record.  Records are appended with flush +
fsync; a record is only trusted after its CRC validates, so a SIGKILL
mid-append loses only the record being written.

Journals are append-only: every record in a results journal is a live
archived cell, so nothing is ever compacted away.
"""

from __future__ import annotations

import json
import os
from typing import BinaryIO

from repro.checkpoint.format import (
    HEADER_SIZE,
    JOURNAL_FORMAT_VERSION,
    SUPPORTED_JOURNAL_FORMATS,
    JournalRecord,
    append_record,
    iter_records,
    read_header,
    write_header,
)
from repro.errors import CheckpointError
from repro.ioutils import atomic_write_text, fsync_directory

MANIFEST_FILENAME = "manifest.json"
JOURNAL_FILENAME = "run.journal"


def write_manifest(directory: str | os.PathLike, manifest: dict) -> None:
    """Atomically write ``manifest.json`` into ``directory``."""
    atomic_write_text(
        os.path.join(os.fspath(directory), MANIFEST_FILENAME),
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )


def read_manifest(directory: str | os.PathLike) -> dict:
    """Read and validate ``manifest.json`` from ``directory``."""
    path = os.path.join(os.fspath(directory), MANIFEST_FILENAME)
    try:
        with open(path) as handle:
            manifest = json.load(handle)
    except OSError as error:
        raise CheckpointError(
            f"cannot read journal manifest {path}: {error}"
        ) from None
    except json.JSONDecodeError as error:
        raise CheckpointError(
            f"journal manifest {path} is not valid JSON: {error}"
        ) from None
    if not isinstance(manifest, dict):
        raise CheckpointError(f"journal manifest {path} must be an object")
    if manifest.get("format") not in SUPPORTED_JOURNAL_FORMATS:
        raise CheckpointError(
            f"unsupported journal manifest format "
            f"{manifest.get('format')!r}; this build reads "
            f"{SUPPORTED_JOURNAL_FORMATS}"
        )
    return manifest


class RunJournal:
    """Checkpoint WAL for one run, living in one directory."""

    def __init__(
        self,
        directory: str,
        manifest: dict,
        filename: str = JOURNAL_FILENAME,
    ):
        self.directory = directory
        self.manifest = manifest
        self.filename = filename
        self._handle: BinaryIO | None = None
        #: Tick of the last record this process appended (or resumed at).
        self.last_tick: int | None = None

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: str | os.PathLike,
        kind: str,
        spec: dict | None = None,
        filename: str = JOURNAL_FILENAME,
    ) -> "RunJournal":
        """Start a fresh journal (truncating any previous one in DIR)."""
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        manifest = {
            "format": JOURNAL_FORMAT_VERSION,
            "kind": kind,
            "spec": dict(spec or {}),
        }
        write_manifest(directory, manifest)
        journal = cls(directory, manifest, filename=filename)
        handle = open(journal.journal_path, "wb")
        write_header(handle)
        handle.flush()
        os.fsync(handle.fileno())
        fsync_directory(directory)
        journal._handle = handle
        return journal

    @classmethod
    def open(
        cls,
        directory: str | os.PathLike,
        filename: str = JOURNAL_FILENAME,
    ) -> "RunJournal":
        """Open an existing journal directory (read-only until resumed)."""
        directory = os.fspath(directory)
        if not os.path.isdir(directory):
            raise CheckpointError(f"no such journal directory: {directory}")
        manifest = read_manifest(directory)
        return cls(directory, manifest, filename=filename)

    @property
    def journal_path(self) -> str:
        return os.path.join(self.directory, self.filename)

    @property
    def kind(self) -> str:
        return str(self.manifest.get("kind", "?"))

    @property
    def spec(self) -> dict:
        """The creator-supplied description of what is checkpointed."""
        spec = self.manifest.get("spec", {})
        return dict(spec) if isinstance(spec, dict) else {}

    # -- reading ---------------------------------------------------------------

    def records(self) -> list[JournalRecord]:
        """All valid records on disk (empty for a missing/virgin WAL)."""
        if not os.path.exists(self.journal_path):
            return []
        with open(self.journal_path, "rb") as handle:
            read_header(handle)
            return list(iter_records(handle))

    def latest(self) -> JournalRecord | None:
        """The newest valid checkpoint record, or None."""
        records = self.records()
        return records[-1] if records else None

    # -- appending -------------------------------------------------------------

    def open_for_append(self) -> JournalRecord | None:
        """Prepare the WAL for appending after a crash.

        Scans the existing file, truncates any torn tail away, and
        positions the write handle after the last valid record.
        Returns that record (the resume point), or None when the WAL
        holds no usable checkpoint (resume must restart from scratch).
        """
        if self._handle is not None:
            raise CheckpointError("journal already open for append")
        if not os.path.exists(self.journal_path):
            handle = open(self.journal_path, "wb")
            write_header(handle)
            handle.flush()
            os.fsync(handle.fileno())
            self._handle = handle
            return None
        handle = open(self.journal_path, "r+b")
        try:
            read_header(handle)
            last: JournalRecord | None = None
            for record in iter_records(handle):
                last = record
            end = last.end_offset if last is not None else HEADER_SIZE
            handle.seek(end)
            handle.truncate(end)
            handle.flush()
            os.fsync(handle.fileno())
        except BaseException:
            handle.close()
            raise
        self._handle = handle
        self.last_tick = last.tick if last is not None else None
        return last

    def append(self, tick: int, payload: bytes) -> int:
        """Durably append one checkpoint record; returns bytes written.

        The record is flushed and fsynced before returning, so once
        this call completes a crash can only lose *later* work.
        """
        if self._handle is None:
            raise CheckpointError(
                "journal not open for writing; use create() or "
                "open_for_append()"
            )
        written = append_record(self._handle, tick, payload)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.last_tick = tick
        return written

    def close(self) -> None:
        """Close the write handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
