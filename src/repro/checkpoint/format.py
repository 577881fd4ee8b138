"""The on-disk journal container: versioned, checksummed records.

A journal file is an append-only write-ahead log::

    +--------+----------+----------+-----
    | header | record 0 | record 1 | ...
    +--------+----------+----------+-----

* **header** (8 bytes): magic ``RPWJ``, little-endian ``u16`` format
  version, ``u16`` reserved (zero).
* **record**: little-endian ``u32`` payload length, ``u32`` CRC-32 of
  the payload, ``u64`` tick index, then the payload bytes.

Readers validate the magic and version, then walk records until the
file ends or a record fails its length or CRC check.  A partial tail --
the normal aftermath of SIGKILL mid-append -- is *expected*, not an
error: the journal's contract is "last durable record wins".  Anything
after the first damaged record is ignored, so recovery never trusts
bytes beyond the damage.

This layer knows nothing about what payloads contain; result records
are serialized one level up (:mod:`repro.campaign.store`).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Iterator

from repro.errors import CheckpointError

#: File magic of a repro power write-ahead journal.
MAGIC = b"RPWJ"

#: Container format version written by this code.
JOURNAL_FORMAT_VERSION = 1

#: Container versions this reader understands.
SUPPORTED_JOURNAL_FORMATS = (1,)

_HEADER = struct.Struct("<4sHH")
_RECORD = struct.Struct("<IIQ")

HEADER_SIZE = _HEADER.size
RECORD_HEADER_SIZE = _RECORD.size

#: Upper bound on a single record payload (guards against reading a
#: garbage length field as a multi-GB allocation).
MAX_PAYLOAD_BYTES = 1 << 31


@dataclass(frozen=True)
class JournalRecord:
    """One validated record read back from a journal."""

    tick: int
    payload: bytes
    #: Byte offset of the record header within the file.
    offset: int

    @property
    def end_offset(self) -> int:
        """Byte offset one past this record's payload."""
        return self.offset + RECORD_HEADER_SIZE + len(self.payload)


def write_header(handle: BinaryIO) -> None:
    """Write the journal header at the current position."""
    handle.write(_HEADER.pack(MAGIC, JOURNAL_FORMAT_VERSION, 0))


def read_header(handle: BinaryIO) -> int:
    """Validate the header at the current position; returns the version."""
    raw = handle.read(HEADER_SIZE)
    if len(raw) < HEADER_SIZE:
        raise CheckpointError("journal too short to hold a header")
    magic, version, _reserved = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise CheckpointError(
            f"not a repro journal (magic {magic!r}, expected {MAGIC!r})"
        )
    if version not in SUPPORTED_JOURNAL_FORMATS:
        raise CheckpointError(
            f"unsupported journal format version {version}; this build "
            f"reads {SUPPORTED_JOURNAL_FORMATS}"
        )
    return version


def pack_record(tick: int, payload: bytes) -> bytes:
    """Serialize one record (header + payload) to bytes."""
    if tick < 0:
        raise CheckpointError(f"record tick must be non-negative, got {tick}")
    return _RECORD.pack(
        len(payload), zlib.crc32(payload) & 0xFFFFFFFF, tick
    ) + payload


def append_record(handle: BinaryIO, tick: int, payload: bytes) -> int:
    """Append one record at the current position; returns bytes written.

    The caller owns flushing/fsync policy (the journal batches both per
    checkpoint).
    """
    record = pack_record(tick, payload)
    handle.write(record)
    return len(record)


def iter_records(handle: BinaryIO) -> Iterator[JournalRecord]:
    """Yield valid records from just after the header to the first damage.

    Stops silently at a truncated or checksum-damaged record: a torn
    tail is the expected end state of a killed writer.  The caller can
    use the last yielded record's :attr:`JournalRecord.end_offset` to
    truncate the damage away before appending.
    """
    offset = handle.tell()
    while True:
        header = handle.read(RECORD_HEADER_SIZE)
        if len(header) < RECORD_HEADER_SIZE:
            return
        length, crc, tick = _RECORD.unpack(header)
        if length > MAX_PAYLOAD_BYTES:
            return
        payload = handle.read(length)
        if len(payload) < length:
            return
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return
        yield JournalRecord(tick=tick, payload=payload, offset=offset)
        offset += RECORD_HEADER_SIZE + length


def read_records(path: str) -> list[JournalRecord]:
    """All valid records of the journal at ``path`` (header validated)."""
    with open(path, "rb") as handle:
        read_header(handle)
        return list(iter_records(handle))
