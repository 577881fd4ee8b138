"""Container-level tests of the checkpoint WAL format.

The format is the crash-safety contract: every byte pattern a SIGKILL
can leave behind -- torn record tails, half-written length prefixes,
bit flips -- must parse back to exactly the durable prefix.
"""

from __future__ import annotations

import io

import pytest

from repro.checkpoint.format import (
    HEADER_SIZE,
    JOURNAL_FORMAT_VERSION,
    MAGIC,
    RECORD_HEADER_SIZE,
    append_record,
    iter_records,
    pack_record,
    read_header,
    read_records,
    write_header,
)
from repro.errors import CheckpointError


def new_journal_bytes(records):
    """A complete journal image (header + records) as one buffer."""
    buffer = io.BytesIO()
    write_header(buffer)
    for tick, payload in records:
        buffer.write(pack_record(tick, payload))
    return buffer.getvalue()


def _journal(records):
    return io.BytesIO(new_journal_bytes(records))


def test_header_round_trip():
    buf = io.BytesIO()
    write_header(buf)
    assert buf.tell() == HEADER_SIZE
    buf.seek(0)
    assert read_header(buf) == JOURNAL_FORMAT_VERSION


def test_header_rejects_bad_magic():
    buf = io.BytesIO(b"NOPE" + bytes(HEADER_SIZE - 4))
    with pytest.raises(CheckpointError, match="magic"):
        read_header(buf)


def test_header_rejects_unsupported_version():
    buf = io.BytesIO()
    write_header(buf)
    raw = bytearray(buf.getvalue())
    raw[4] = 0xFF  # little-endian low byte of the version field
    with pytest.raises(CheckpointError, match="format"):
        read_header(io.BytesIO(bytes(raw)))


def test_header_rejects_truncated_file():
    with pytest.raises(CheckpointError, match="short"):
        read_header(io.BytesIO(MAGIC))


def test_records_round_trip():
    payloads = [(0, b"alpha"), (10, b"beta"), (20, b"x" * 10_000)]
    buf = _journal(payloads)
    read_header(buf)
    records = list(iter_records(buf))
    assert [(r.tick, r.payload) for r in records] == payloads
    # Offsets chain: each record starts where the previous ended.
    assert records[0].offset == HEADER_SIZE
    for previous, current in zip(records, records[1:]):
        assert current.offset == previous.end_offset


@pytest.mark.parametrize("torn_bytes", [1, 7, RECORD_HEADER_SIZE - 1,
                                        RECORD_HEADER_SIZE + 3])
def test_torn_tail_yields_durable_prefix(torn_bytes):
    image = new_journal_bytes([(0, b"first"), (5, b"second")])
    tail = pack_record(9, b"torn-away-payload")
    buf = io.BytesIO(image + tail[:torn_bytes])
    read_header(buf)
    assert [r.tick for r in iter_records(buf)] == [0, 5]


def test_corrupt_crc_stops_iteration():
    image = bytearray(new_journal_bytes([(0, b"aaaa"), (1, b"bbbb")]))
    # Flip one payload byte of the second record (its last byte).
    image[-1] ^= 0xFF
    buf = io.BytesIO(bytes(image))
    read_header(buf)
    assert [r.tick for r in iter_records(buf)] == [0]


def test_append_record_matches_pack(tmp_path):
    path = tmp_path / "wal"
    with open(path, "wb") as handle:
        write_header(handle)
        written = append_record(handle, 42, b"payload")
    assert written == RECORD_HEADER_SIZE + len(b"payload")
    records = read_records(path)
    assert [(r.tick, r.payload) for r in records] == [(42, b"payload")]


def test_read_records_on_header_only_file(tmp_path):
    path = tmp_path / "wal"
    with open(path, "wb") as handle:
        write_header(handle)
    assert read_records(path) == []
