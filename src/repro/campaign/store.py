"""Content-addressed on-disk result store for campaigns.

Every :class:`~repro.exec.plan.RunCell` is keyed by a SHA-256 digest of
its *canonical spec*: the cell's serialized form plus every plan-wide
input that shapes its result (experiment config fields, the hash of
the machine config's canonical JSON, fault plan, adaptation,
resilience, and -- for ``trace:`` workloads -- the trace file's
content hash).  Because cells are deterministic functions of exactly
that data, a digest identifies a result: re-running a sweep looks each
cell up first and executes only the misses, and editing any input (a
scale, a trace CSV byte, a governor knob, a machine constant) changes
the digest and therefore transparently invalidates the cached result.

Layout (store format 2)::

    <root>/store.json       manifest: kind + format version
    <root>/results.log      append-only log of result records
    <root>/quarantine/      one JSON record per quarantined cell

``results.log`` is a :mod:`repro.checkpoint.format` container: a header,
then one CRC-32-framed record per stored cell whose payload is the
cell digest's 32 raw bytes followed by a pickle of ``{"spec",
"result", "result_digest"}``.  Opening a store scans the log once and
indexes ``digest -> (offset, length)`` without unpickling anything; the
scan stops at the first damaged record.  A later record for the same
digest supersedes an earlier one.

Durability contract:

* each :meth:`ResultStore.put` appends its record with one ``write``
  and a flush before it returns, so a killed process leaves every
  returned put readable (a torn tail fails its CRC and is ignored);
* the log is fsynced by :meth:`ResultStore.close`, which the campaign
  engine calls once per invocation, not once per put; a power loss can
  drop only records appended since the last fsync -- a dropped record
  is a cache miss that re-executes, never a torn result served;
* one writer at a time: appending takes an exclusive ``flock`` on the
  log, and a second writer gets a :class:`~repro.errors.CampaignError`.
  A forked child (a pool worker) closes its copy of the locked handle,
  so a worker outliving a killed coordinator does not keep the lock.
  The writer truncates a torn tail before its first append.  Readers
  (:meth:`~ResultStore.get`, :meth:`~ResultStore.has`, ``campaign
  status``) never lock or truncate, so they are safe beside a live
  campaign;
* stores of another format (format 1 kept one pickle file per result)
  are refused with a pointed message; they are not converted.

Cache reads are *verified*: :meth:`ResultStore.get` recomputes
:func:`~repro.checkpoint.digest.run_result_digest` over the unpickled
result and compares it to the digest stored at put time -- a cache hit
is provably bit-identical to the original execution, not just
plausibly so.

Quarantine records (cells that exhausted their retry budget, or failed
permanently) stay human-readable JSON files carrying the full failure
history, listed once when the store opens; ``campaign retry`` deletes
them to make the cells eligible again.
"""

from __future__ import annotations

import dataclasses
import fcntl
import hashlib
import json
import os
import pickle
import weakref
from typing import BinaryIO, Dict, List, Mapping, Tuple

from repro.acpi.pstates import PStateTable
from repro.checkpoint.digest import run_result_digest
from repro.checkpoint.format import (
    HEADER_SIZE,
    RECORD_HEADER_SIZE,
    iter_records,
    pack_record,
    read_header,
    write_header,
)
from repro.core.controller import RunResult
from repro.errors import CampaignError, CheckpointError
from repro.exec.cache import file_sha256
from repro.exec.plan import RunCell, RunPlan, _CONFIG_FIELDS
from repro.ioutils import atomic_write_text, fsync_directory

#: Store layout version (bump on any incompatible change to the spec
#: canonicalization or the on-disk layout).
STORE_FORMAT_VERSION = 2

#: Marker file identifying a directory as a campaign store.
STORE_MANIFEST = "store.json"

#: The append-only log holding every result record.
RESULTS_LOG = "results.log"

#: Subdirectory holding quarantine records (``<digest>.json``).
QUARANTINE_DIR = "quarantine"

#: Raw bytes of a cell digest at the head of each record's payload.
_KEY_BYTES = hashlib.sha256().digest_size


def machine_spec(value):
    """Canonical JSON-safe form of a machine config (or one of its parts).

    Dataclasses become ``{"type": module.qualname, <init fields>...}``
    and a p-state table its list of states, recursively; floats keep
    their exact value through ``json``.  State a dataclass does not take
    as an argument (a thermal model's running temperature) is left out.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        kind = type(value)
        out = {"type": f"{kind.__module__}.{kind.__qualname__}"}
        for field in dataclasses.fields(value):
            if field.init:
                out[field.name] = machine_spec(getattr(value, field.name))
        return out
    if isinstance(value, PStateTable):
        return [machine_spec(state) for state in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise CampaignError(
        f"cannot content-address a machine config holding a "
        f"{type(value).__name__}"
    )


def plan_spec(plan: RunPlan) -> dict:
    """The plan-wide part of every cell spec; build it once per plan."""
    config = {key: getattr(plan.config, key) for key in _CONFIG_FIELDS}
    machine = json.dumps(
        machine_spec(plan.config.machine),
        sort_keys=True, separators=(",", ":"),
    )
    config["machine_sha256"] = hashlib.sha256(
        machine.encode("utf-8")
    ).hexdigest()
    return {
        "format": STORE_FORMAT_VERSION,
        "config": config,
        "fault_plan": (
            plan.fault_plan.to_dict() if plan.fault_plan is not None
            else None
        ),
        "adaptation": (
            dataclasses.asdict(plan.adaptation)
            if plan.adaptation is not None else None
        ),
        "resilience": (
            dataclasses.asdict(plan.resilience)
            if plan.resilience is not None else None
        ),
    }


def campaign_cell_spec(
    cell: RunCell, plan: RunPlan, shared: Mapping | None = None
) -> dict:
    """The canonical JSON-safe spec one cell's digest is computed over.

    Carries everything that determines the cell's result and nothing
    that does not (worker identity, dispatch order and wall-clock
    timing never appear).  ``trace:`` workloads additionally pin the
    trace file's content hash, so a touched-but-identical file keeps
    its digest while a single changed byte invalidates it.  ``shared``
    is :func:`plan_spec` of ``plan``, when the caller already built it.
    """
    if shared is None:
        shared = plan_spec(plan)
    spec: dict = {
        "format": shared["format"],
        "cell": cell.to_dict(),
        "config": shared["config"],
    }
    for key, own in (
        ("fault_plan", cell.fault_plan),
        ("adaptation", cell.adaptation),
        ("resilience", cell.resilience),
    ):
        if own is None and shared[key] is not None:
            spec[key] = shared[key]
    workload = cell.workload
    if isinstance(workload, str) and workload.startswith("trace:"):
        path = workload.partition(":")[2]
        try:
            spec["workload_sha256"] = file_sha256(path)
        except OSError:
            # Resolution will raise the pointed WorkloadError in the
            # worker; the digest still has to exist so the failure can
            # be quarantined under it.
            spec["workload_sha256"] = None
    return spec


def plan_cell_specs(plan: RunPlan) -> List[dict]:
    """Every cell's spec, in cell order, sharing one :func:`plan_spec`."""
    shared = plan_spec(plan)
    return [campaign_cell_spec(cell, plan, shared) for cell in plan.cells]


def cell_digest(
    cell: RunCell, plan: RunPlan, spec: Mapping | None = None
) -> str:
    """SHA-256 hex digest of the cell's canonical spec (``spec`` when
    the caller already built it with :func:`campaign_cell_spec`)."""
    if spec is None:
        spec = campaign_cell_spec(cell, plan)
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def plan_digests(plan: RunPlan) -> List[str]:
    """Every cell's digest, in cell order."""
    return [
        cell_digest(cell, plan, spec)
        for cell, spec in zip(plan.cells, plan_cell_specs(plan))
    ]


#: Stores holding the writer lock in this process.
_WRITERS: "weakref.WeakSet[ResultStore]" = weakref.WeakSet()


def _drop_inherited_writers() -> None:
    """In a forked child: close the copies of the parent's locked log
    handles.  An ``flock`` lasts while any copy of its handle is open,
    so a child keeping them would hold the lock after its parent died.
    Every put flushes, so no buffered record is lost."""
    for store in list(_WRITERS):
        writer, store._writer = store._writer, None
        if writer is not None:
            writer.close()
    _WRITERS.clear()


os.register_at_fork(after_in_child=_drop_inherited_writers)


def _key(digest: str) -> bytes:
    try:
        key = bytes.fromhex(digest)
    except ValueError:
        key = b""
    if len(key) != _KEY_BYTES:
        raise CampaignError(
            f"store keys are SHA-256 hex digests, got {digest!r}"
        )
    return key


class ResultStore:
    """A directory of verified, content-addressed cell results.

    Use it as a context manager (or call :meth:`close`) to fsync the log
    and release the writer lock; a closed store reopens its files on
    the next read or put.
    """

    def __init__(self, root: str | os.PathLike, create: bool = True):
        self.root = os.path.abspath(os.fspath(root))
        self.log_path = os.path.join(self.root, RESULTS_LOG)
        self.quarantine_dir = os.path.join(self.root, QUARANTINE_DIR)
        manifest_path = os.path.join(self.root, STORE_MANIFEST)
        if not create and not os.path.exists(manifest_path):
            raise CampaignError(
                f"{self.root} is not a campaign store "
                f"(no {STORE_MANIFEST}); run 'campaign run' first"
            )
        if os.path.exists(manifest_path):
            try:
                with open(manifest_path) as handle:
                    manifest = json.load(handle)
            except (OSError, json.JSONDecodeError) as error:
                raise CampaignError(
                    f"unreadable store manifest {manifest_path}: {error}"
                ) from None
            if not isinstance(manifest, dict) or manifest.get(
                "kind"
            ) != "repro-campaign-store":
                raise CampaignError(
                    f"{self.root} is not a campaign store "
                    f"(bad manifest {STORE_MANIFEST})"
                )
            if manifest.get("format") != STORE_FORMAT_VERSION:
                raise CampaignError(
                    f"store {self.root} has format "
                    f"{manifest.get('format')!r}; this build reads "
                    f"format {STORE_FORMAT_VERSION} only and does not "
                    "convert stores: use a new store directory"
                )
            self.preexisting = True
        else:
            if os.path.isdir(self.root) and os.listdir(self.root):
                raise CampaignError(
                    f"refusing to initialize a store in non-empty "
                    f"directory {self.root} (no {STORE_MANIFEST} found)"
                )
            os.makedirs(self.root, exist_ok=True)
            atomic_write_text(
                manifest_path,
                json.dumps(
                    {
                        "kind": "repro-campaign-store",
                        "format": STORE_FORMAT_VERSION,
                    },
                    indent=2,
                )
                + "\n",
            )
            self.preexisting = False
        os.makedirs(self.quarantine_dir, exist_ok=True)
        #: Records dropped because they failed to unpickle (damaged or
        #: foreign payloads); such cells simply re-execute.
        self.unreadable = 0
        #: digest -> (payload pickle offset, pickle length) in the log.
        self._index: Dict[str, Tuple[int, int]] = {}
        #: Offset one past the last valid record indexed (0: header
        #: not read yet).
        self._end = 0
        self._reader: BinaryIO | None = None
        self._writer: BinaryIO | None = None
        self._dirty = False
        self._quarantined = {
            name[: -len(".json")]
            for name in os.listdir(self.quarantine_dir)
            if name.endswith(".json")
        }
        self.refresh()

    # -- the results log ---------------------------------------------------

    def refresh(self) -> int:
        """Index the records appended since the last scan (by this or
        any other process); returns how many were added.

        Stops at the first damaged record: a torn tail is the normal
        trace of a killed writer, and no byte past it is trusted.
        """
        if self._reader is None:
            try:
                # Unbuffered: a read buffer could replay bytes a later
                # writer truncated away and rewrote.
                self._reader = open(self.log_path, "rb", buffering=0)
            except FileNotFoundError:
                return 0
        handle = self._reader
        if self._end == 0:
            if os.fstat(handle.fileno()).st_size < HEADER_SIZE:
                return 0  # a writer is still creating the log
            handle.seek(0)
            try:
                read_header(handle)
            except CheckpointError as error:
                raise CampaignError(f"{self.log_path}: {error}") from None
            self._end = HEADER_SIZE
        handle.seek(self._end)
        added = 0
        for record in iter_records(handle):
            if len(record.payload) <= _KEY_BYTES:
                break  # CRC-valid but not a result record: damage
            start = record.offset + RECORD_HEADER_SIZE + _KEY_BYTES
            self._index[record.payload[:_KEY_BYTES].hex()] = (
                start, len(record.payload) - _KEY_BYTES,
            )
            self._end = record.end_offset
            added += 1
        return added

    def open_writer(self) -> None:
        """Take the writer lock and ready the log for appends.

        Creates the log on first use, indexes whatever earlier writers
        appended, and truncates a torn tail.  Raises
        :class:`CampaignError` when another writer holds the lock.
        """
        if self._writer is not None:
            return
        handle = open(self.log_path, "ab")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            handle.close()
            raise CampaignError(
                f"store {self.root} is being written by another campaign "
                f"(it holds the lock on {RESULTS_LOG}); wait for it to "
                "finish or use another store directory"
            ) from None
        try:
            size = os.fstat(handle.fileno()).st_size
            if size < HEADER_SIZE:
                handle.truncate(0)
                write_header(handle)
                handle.flush()
                os.fsync(handle.fileno())
                fsync_directory(self.root)
                size = HEADER_SIZE
            self.refresh()
            if size > self._end:
                handle.truncate(self._end)
        except BaseException:
            handle.close()
            raise
        self._writer = handle
        _WRITERS.add(self)

    def close(self) -> None:
        """fsync what this store appended, release the writer lock and
        close the log."""
        try:
            if self._writer is not None and self._dirty:
                os.fsync(self._writer.fileno())
                self._dirty = False
        finally:
            writer, reader = self._writer, self._reader
            self._writer = self._reader = None
            _WRITERS.discard(self)
            try:
                if writer is not None:
                    writer.close()
            finally:
                if reader is not None:
                    reader.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- result records ----------------------------------------------------

    def has(self, digest: str) -> bool:
        """Whether a result record is indexed for ``digest``."""
        return digest in self._index

    def put(self, digest: str, spec: Mapping, result: RunResult) -> Mapping:
        """Append ``result`` under ``digest``, kill-safe once this
        returns; returns its :func:`run_result_digest` (computed once,
        stored alongside).  Durable against power loss after the next
        :meth:`close`."""
        key = _key(digest)
        result_digest = run_result_digest(result)
        body = pickle.dumps(
            {"spec": dict(spec), "result": result,
             "result_digest": result_digest},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self.open_writer()
        record = pack_record(0, key + body)
        try:
            self._writer.write(record)
            self._writer.flush()
        except BaseException:
            # Never append after a partial record: let go of the log so
            # the next put rescans it and truncates the torn tail.
            try:
                self.close()
            except OSError:
                pass
            raise
        self._index[digest] = (
            self._end + RECORD_HEADER_SIZE + _KEY_BYTES, len(body)
        )
        self._end += len(record)
        self._dirty = True
        return result_digest

    def load(self, digest: str) -> dict | None:
        """The raw record payload for ``digest`` (None when absent or
        unreadable; unreadable records are counted on ``unreadable``)."""
        entry = self._index.get(digest)
        if entry is None:
            return None
        if self._reader is None:
            self.refresh()
        offset, length = entry
        try:
            payload = pickle.loads(
                os.pread(self._reader.fileno(), length, offset)
            )
            if not isinstance(payload, dict) or "result" not in payload:
                raise ValueError("not a campaign result record")
        except Exception:  # noqa: BLE001 - treat damage as a cache miss
            self.unreadable += 1
            return None
        return payload

    def get(self, digest: str, verify: bool = True) -> RunResult | None:
        """The cached result for ``digest``, bit-identity verified.

        ``verify`` recomputes :func:`run_result_digest` over the loaded
        result and compares it to the digest recorded at put time; a
        mismatch means the record no longer reproduces the execution it
        claims to cache and raises :class:`CampaignError` rather than
        silently serving corrupt data.
        """
        payload = self.load(digest)
        if payload is None:
            return None
        result = payload["result"]
        if verify:
            recomputed = run_result_digest(result)
            if recomputed != payload.get("result_digest"):
                raise CampaignError(
                    f"store object {digest[:12]} failed bit-identity "
                    "verification (stored run_result_digest does not "
                    "match the unpickled result)"
                )
        return result

    def result_digest(self, digest: str) -> Mapping | None:
        """The stored ``run_result_digest`` for ``digest`` (or None)."""
        payload = self.load(digest)
        return None if payload is None else payload.get("result_digest")

    def object_digests(self) -> List[str]:
        """Digests of every indexed result record, sorted."""
        return sorted(self._index)

    # -- quarantine --------------------------------------------------------

    def _quarantine_path(self, digest: str) -> str:
        return os.path.join(self.quarantine_dir, f"{digest}.json")

    def write_quarantine(self, digest: str, record: Mapping) -> None:
        """Durably record a quarantined cell's failure history."""
        atomic_write_text(
            self._quarantine_path(digest),
            json.dumps(dict(record), indent=2, sort_keys=True) + "\n",
        )
        self._quarantined.add(digest)

    def quarantine_record(self, digest: str) -> dict | None:
        """The quarantine record for ``digest`` (None when not
        quarantined or the record is unreadable)."""
        if digest not in self._quarantined:
            return None
        try:
            with open(self._quarantine_path(digest)) as handle:
                record = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return record if isinstance(record, dict) else None

    def clear_quarantine(self, digest: str) -> bool:
        """Delete ``digest``'s quarantine record (making the cell
        eligible again); returns whether a record existed."""
        self._quarantined.discard(digest)
        try:
            os.remove(self._quarantine_path(digest))
        except FileNotFoundError:
            return False
        return True

    def quarantined_digests(self) -> List[str]:
        """Digests of every quarantined cell, sorted."""
        return sorted(self._quarantined)
