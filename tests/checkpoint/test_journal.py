"""RunJournal directory tests: manifest, durability, recovery."""

from __future__ import annotations

import json
import os

import pytest

from repro.checkpoint.format import HEADER_SIZE, read_records
from repro.checkpoint.journal import (
    MANIFEST_FILENAME,
    RunJournal,
    read_manifest,
    write_manifest,
)
from repro.errors import CheckpointError


def test_create_writes_manifest_and_header(tmp_path):
    directory = tmp_path / "j"
    with RunJournal.create(directory, kind="run",
                           spec={"workload": "ammp"}) as journal:
        assert journal.kind == "run"
        assert journal.spec == {"workload": "ammp"}
    manifest = read_manifest(directory)
    assert manifest["kind"] == "run"
    assert os.path.getsize(journal.journal_path) == HEADER_SIZE


def test_append_then_records_round_trip(tmp_path):
    with RunJournal.create(tmp_path / "j", kind="run") as journal:
        journal.append(0, b"zero")
        journal.append(7, b"seven")
        assert journal.last_tick == 7
        assert [(r.tick, r.payload) for r in journal.records()] == [
            (0, b"zero"), (7, b"seven"),
        ]
        assert journal.latest().tick == 7


def test_open_for_append_truncates_torn_tail(tmp_path):
    directory = tmp_path / "j"
    with RunJournal.create(directory, kind="run") as journal:
        journal.append(0, b"durable")
        journal.append(1, b"also-durable")
    # Simulate SIGKILL mid-append: garbage after the last valid record.
    with open(os.path.join(directory, journal.filename), "ab") as handle:
        handle.write(b"\x99" * 11)
    reopened = RunJournal.open(directory)
    last = reopened.open_for_append()
    assert last.tick == 1
    reopened.append(2, b"after-recovery")
    reopened.close()
    assert [r.tick for r in read_records(reopened.journal_path)] == [0, 1, 2]


def test_open_for_append_on_virgin_journal_returns_none(tmp_path):
    directory = tmp_path / "j"
    RunJournal.create(directory, kind="run").close()
    reopened = RunJournal.open(directory)
    assert reopened.open_for_append() is None
    reopened.close()


def test_open_missing_directory_raises(tmp_path):
    with pytest.raises(CheckpointError, match="no such journal"):
        RunJournal.open(tmp_path / "missing")


def test_manifest_validation(tmp_path):
    directory = tmp_path / "j"
    directory.mkdir()
    (directory / MANIFEST_FILENAME).write_text("{not json")
    with pytest.raises(CheckpointError, match="JSON"):
        read_manifest(directory)
    write_manifest(directory, {"format": 999})
    with pytest.raises(CheckpointError, match="unsupported"):
        read_manifest(directory)


def test_appends_keep_every_record(tmp_path):
    """No record is ever compacted away: a results journal holds one
    live archived cell per record, so every append, across a reopen,
    reads back in order."""
    directory = tmp_path / "j"
    with RunJournal.create(directory, kind="experiment") as journal:
        for tick in range(5):
            journal.append(tick, bytes([tick]) * 1024)
    journal = RunJournal.open(directory)
    with journal:
        assert journal.open_for_append().tick == 4
        for tick in range(5, 10):
            journal.append(tick, bytes([tick]) * 1024)
    seen = [(r.tick, r.payload) for r in journal.records()]
    assert seen == [(tick, bytes([tick]) * 1024) for tick in range(10)]


def test_custom_filename(tmp_path):
    directory = tmp_path / "j"
    with RunJournal.create(directory, kind="experiment",
                           filename="results.journal") as journal:
        journal.append(0, b"slot-0")
    assert (directory / "results.journal").exists()
    reopened = RunJournal.open(directory, filename="results.journal")
    assert [r.tick for r in reopened.records()] == [0]


def test_manifest_is_valid_json_on_disk(tmp_path):
    directory = tmp_path / "j"
    RunJournal.create(directory, kind="run", spec={"seed": 3}).close()
    with open(directory / MANIFEST_FILENAME) as handle:
        manifest = json.load(handle)
    assert manifest["spec"] == {"seed": 3}
