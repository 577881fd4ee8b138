"""Result store: canonical digests, verified reads, quarantine records."""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import pickle
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import run_campaign
from repro.campaign.store import (
    RESULTS_LOG,
    STORE_FORMAT_VERSION,
    ResultStore,
    campaign_cell_spec,
    cell_digest,
    machine_spec,
    plan_cell_specs,
    plan_digests,
)
from repro.checkpoint.digest import run_result_digest
from repro.checkpoint.format import pack_record
from repro.errors import CampaignError
from repro.exec.core import execute_cell
from repro.exec.plan import ExperimentConfig, GovernorSpec, RunCell, RunPlan
from repro.measurement.power_meter import PowerSamples
from repro.platform.machine import MachineConfig
from repro.platform.power import PowerModelConstants
from repro.traces.corpus import corpus_trace

CONFIG = ExperimentConfig(scale=0.05, seed=1)
CELL = RunCell(workload="ammp", governor=GovernorSpec.fixed(1600.0))
PLAN = RunPlan(config=CONFIG, cells=(CELL,))


def _append(root, digest: str, body: bytes) -> None:
    """Append one CRC-valid record to a store's log, bypassing put."""
    with open(os.path.join(root, RESULTS_LOG), "ab") as handle:
        handle.write(pack_record(0, bytes.fromhex(digest) + body))


class TestCellDigest:
    def test_stable_across_calls(self):
        assert cell_digest(CELL, PLAN) == cell_digest(CELL, PLAN)

    def test_sensitive_to_cell_and_config(self):
        base = cell_digest(CELL, PLAN)
        other_cell = RunCell(
            workload="ammp", governor=GovernorSpec.fixed(2000.0)
        )
        assert cell_digest(other_cell, PLAN) != base
        other_plan = RunPlan(
            config=ExperimentConfig(scale=0.05, seed=2), cells=(CELL,)
        )
        assert cell_digest(CELL, other_plan) != base

    def test_insensitive_to_sibling_cells(self):
        wider = RunPlan(
            config=CONFIG,
            cells=(
                CELL,
                RunCell(workload="mcf", governor=GovernorSpec.fixed(2000.0)),
            ),
        )
        assert cell_digest(CELL, wider) == cell_digest(CELL, PLAN)

    def test_trace_content_pins_digest(self, tmp_path):
        path = tmp_path / "x.trace.csv"
        corpus_trace("desktop-media").to_path(str(path))
        cell = RunCell(
            workload=f"trace:{path}", governor=GovernorSpec.fixed(1400.0)
        )
        plan = RunPlan(config=CONFIG, cells=(cell,))
        first = cell_digest(cell, plan)
        # Touch without edit: same content hash, same digest.
        os.utime(path, ns=(1, 1))
        assert cell_digest(cell, plan) == first
        # A changed byte invalidates.
        corpus_trace("desktop-media", 1).to_path(str(path))
        assert cell_digest(cell, plan) != first

    def test_missing_trace_still_digestable(self):
        cell = RunCell(
            workload="trace:/nonexistent/poison.csv",
            governor=GovernorSpec.fixed(1000.0),
        )
        plan = RunPlan(config=CONFIG, cells=(cell,))
        spec = campaign_cell_spec(cell, plan)
        assert spec["workload_sha256"] is None
        assert cell_digest(cell, plan)

    def test_machine_config_pins_digest(self, tmp_path):
        hot = RunPlan(
            config=ExperimentConfig(
                scale=0.05, seed=1,
                machine=MachineConfig(
                    power=PowerModelConstants(c_base=3.2)
                ),
            ),
            cells=(CELL,),
        )
        assert cell_digest(CELL, hot) != cell_digest(CELL, PLAN)
        # Both plans round-trip through one store, each served verified
        # and bit-identical to its own serial execution.
        store = tmp_path / "store"
        for plan in (PLAN, hot):
            assert run_campaign(plan, store, workers=1).executed == (0,)
        for plan in (PLAN, hot):
            resumed = run_campaign(plan, store, workers=1)
            assert resumed.cached == (0,)
            assert run_result_digest(resumed.results[0]) == (
                run_result_digest(execute_cell(CELL, plan.config))
            )
        with ResultStore(store) as reader:
            assert len(reader.object_digests()) == 2

    def test_unserializable_machine_part_rejected(self):
        with pytest.raises(CampaignError, match="content-address"):
            machine_spec(MachineConfig(thermal=object()))

    def test_specs_built_once_per_plan_match_per_cell_specs(self):
        plan = RunPlan(
            config=CONFIG,
            cells=(
                CELL,
                RunCell(workload="mcf", governor=GovernorSpec.fixed(2000.0)),
            ),
        )
        shared = plan_cell_specs(plan)
        assert shared == [campaign_cell_spec(c, plan) for c in plan.cells]
        assert plan_digests(plan) == [cell_digest(c, plan) for c in plan.cells]

    def test_spec_carries_format_version(self):
        spec = campaign_cell_spec(CELL, PLAN)
        assert spec["format"] == STORE_FORMAT_VERSION


class TestResultStore:
    def test_put_get_round_trip_verified(self, tmp_path):
        digest = cell_digest(CELL, PLAN)
        result = execute_cell(CELL, CONFIG)
        with ResultStore(tmp_path / "store") as store:
            stored_digest = store.put(
                digest, campaign_cell_spec(CELL, PLAN), result
            )
            assert store.has(digest)
            assert stored_digest == run_result_digest(result)
            cached = store.get(digest)
            assert run_result_digest(cached) == stored_digest

    def test_get_detects_tampering(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        digest = cell_digest(CELL, PLAN)
        result = execute_cell(CELL, CONFIG)
        store.put(digest, campaign_cell_spec(CELL, PLAN), result)
        store.close()
        # A later record with a valid CRC supersedes the honest one.
        forged = {"spec": {}, "result": result,
                  "result_digest": {"samples_sha256": "forged"}}
        _append(tmp_path / "store", digest, pickle.dumps(forged))
        with ResultStore(tmp_path / "store") as reopened:
            with pytest.raises(CampaignError, match="bit-identity"):
                reopened.get(digest)

    def test_record_with_tuple_samples_is_served_as_columns(self, tmp_path):
        # A record written before power samples were columns pickled the
        # result's samples as a tuple of PowerSample.
        digest = cell_digest(CELL, PLAN)
        result = execute_cell(CELL, CONFIG)
        legacy = dataclasses.replace(result, samples=tuple(result.samples))
        assert "PowerSamples" not in repr(pickle.dumps(legacy))
        with ResultStore(tmp_path / "store") as store:
            store.open_writer()  # creates the log
        record = {"spec": campaign_cell_spec(CELL, PLAN), "result": legacy,
                  "result_digest": run_result_digest(result)}
        _append(tmp_path / "store", digest, pickle.dumps(record))
        with ResultStore(tmp_path / "store") as store:
            cached = store.get(digest)
        assert type(cached.samples) is PowerSamples
        assert cached.samples == result.samples
        assert run_result_digest(cached) == run_result_digest(result)

    def test_unreadable_object_is_a_counted_miss(self, tmp_path):
        with ResultStore(tmp_path / "store") as store:
            store.open_writer()  # creates the log
        digest = "deadbeef" * 8
        _append(tmp_path / "store", digest, b"\x80\x04 torn mid-pickle")
        with ResultStore(tmp_path / "store") as store:
            assert store.has(digest)
            assert store.get(digest) is None
            assert store.unreadable == 1

    def test_keys_must_be_sha256_hex(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(CampaignError, match="SHA-256"):
            store.put("deadbeef", {}, execute_cell(CELL, CONFIG))

    def test_reopen_sets_preexisting(self, tmp_path):
        first = ResultStore(tmp_path / "store")
        assert first.preexisting is False
        second = ResultStore(tmp_path / "store")
        assert second.preexisting is True

    def test_refuses_foreign_directory(self, tmp_path):
        foreign = tmp_path / "not-a-store"
        foreign.mkdir()
        (foreign / "something.txt").write_text("hello")
        with pytest.raises(CampaignError, match="non-empty"):
            ResultStore(foreign)

    def test_refuses_future_format(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root)
        (root / "store.json").write_text(json.dumps(
            {"kind": "repro-campaign-store",
             "format": STORE_FORMAT_VERSION + 1}
        ))
        with pytest.raises(CampaignError, match="format"):
            ResultStore(root)

    def test_refuses_format_1_store(self, tmp_path):
        root = tmp_path / "store"
        (root / "objects").mkdir(parents=True)
        (root / "store.json").write_text(json.dumps(
            {"kind": "repro-campaign-store", "format": 1}
        ))
        with pytest.raises(CampaignError, match="new store directory"):
            ResultStore(root)

    def test_create_false_requires_manifest(self, tmp_path):
        missing = tmp_path / "absent"
        with pytest.raises(CampaignError, match="not a campaign store"):
            ResultStore(missing, create=False)
        assert not missing.exists()

    def test_quarantine_round_trip_and_clear(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        record = {"cell": "x", "attempts": 3, "permanent": False}
        store.write_quarantine("abc123", record)
        assert store.quarantined_digests() == ["abc123"]
        assert store.quarantine_record("abc123")["attempts"] == 3
        assert store.clear_quarantine("abc123") is True
        assert store.clear_quarantine("abc123") is False
        assert store.quarantined_digests() == []


#: Cells whose results fill the log tests' stores.
LOG_CELLS = tuple(
    RunCell(workload=name, governor=GovernorSpec.fixed(1600.0))
    for name in ("ammp", "mcf", "equake")
)
LOG_PLAN = RunPlan(config=CONFIG, cells=LOG_CELLS)


@functools.lru_cache(maxsize=None)
def _log_entries():
    """(digest, spec, result) for each log cell, executed once."""
    return tuple(
        (cell_digest(cell, LOG_PLAN), campaign_cell_spec(cell, LOG_PLAN),
         execute_cell(cell, CONFIG))
        for cell in LOG_CELLS
    )


def _filled_store(root):
    """A store holding every log cell; returns the record end offsets."""
    ends = []
    with ResultStore(root) as store:
        for digest, spec, result in _log_entries():
            store.put(digest, spec, result)
            ends.append(os.path.getsize(store.log_path))
    return ends


class TestResultsLog:
    def test_second_writer_is_refused(self, tmp_path):
        with ResultStore(tmp_path / "store") as first:
            first.open_writer()
            second = ResultStore(tmp_path / "store")
            with pytest.raises(CampaignError, match="another campaign"):
                second.open_writer()
            digest, spec, result = _log_entries()[0]
            with pytest.raises(CampaignError, match="another campaign"):
                second.put(digest, spec, result)
            second.close()
        # Closing the first writer releases the lock.
        with ResultStore(tmp_path / "store") as third:
            third.open_writer()

    def test_forked_child_does_not_hold_the_writer_lock(self, tmp_path):
        # A pool worker forked while its coordinator holds the lock must
        # not keep the store locked once the coordinator is gone.
        store = ResultStore(tmp_path / "store")
        store.open_writer()
        ready_r, ready_w = os.pipe()
        stop_r, stop_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child lives until the parent closes stop_w
            try:
                os.write(ready_w, b"x")  # past its fork hooks
                os.close(stop_w)
                os.read(stop_r, 1)
            finally:
                os._exit(0)
        try:
            os.close(stop_r)
            os.read(ready_r, 1)
            store.close()
            with ResultStore(tmp_path / "store") as other:
                other.open_writer()
        finally:
            os.close(stop_w)
            os.waitpid(pid, 0)
            os.close(ready_r)
            os.close(ready_w)

    def test_reader_sees_appends_without_locking(self, tmp_path):
        root = tmp_path / "store"
        writer = ResultStore(root)
        reader = ResultStore(root, create=False)
        for expected, (digest, spec, result) in enumerate(_log_entries()):
            writer.put(digest, spec, result)
            assert reader.refresh() == 1
            assert reader.has(digest)
            assert run_result_digest(reader.get(digest)) == (
                run_result_digest(result)
            )
        # The reader never took the lock: the writer still appends.
        assert len(reader.object_digests()) == len(LOG_CELLS)
        writer.close()
        reader.close()

    def test_reader_follows_a_writer_that_rewrote_a_torn_tail(
        self, tmp_path
    ):
        (d0, s0, r0), (d1, _, _), (d2, s2, r2) = _log_entries()
        root = tmp_path / "store"
        with ResultStore(root) as writer:
            writer.put(d0, s0, r0)
        # A killed writer's torn tail: half of a record.
        record = pack_record(0, bytes.fromhex(d1) + b"x" * 4000)
        with open(os.path.join(root, RESULTS_LOG), "ab") as handle:
            handle.write(record[: len(record) // 2])
        with ResultStore(root, create=False) as reader:
            assert reader.object_digests() == [d0]
            with ResultStore(root) as writer:
                writer.put(d2, s2, r2)  # truncates the half record first
            assert reader.refresh() == 1
            assert reader.object_digests() == sorted([d0, d2])
            assert run_result_digest(reader.get(d2)) == (
                run_result_digest(r2)
            )

    def test_damaged_record_ends_the_scan(self, tmp_path):
        root = tmp_path / "store"
        ends = _filled_store(root)
        log = os.path.join(root, RESULTS_LOG)
        with open(log, "r+b") as handle:
            handle.seek(ends[0] + 40)  # inside record 1's payload
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))
        digests = [digest for digest, _, _ in _log_entries()]
        with ResultStore(root) as store:
            # Nothing past the damage is trusted, the intact record 2
            # included.
            assert store.object_digests() == [digests[0]]
            digest, spec, result = _log_entries()[1]
            store.put(digest, spec, result)
            assert os.path.getsize(log) == ends[1]  # damage truncated
        with ResultStore(root) as store:
            assert store.object_digests() == sorted(digests[:2])

    def test_failed_put_leaves_no_torn_record_under_the_next(self, tmp_path):
        class TornWriter:
            """Writes half of each record, then fails like a full disk."""

            def __init__(self, inner):
                self.inner = inner

            def write(self, data):
                self.inner.write(data[: len(data) // 2])
                self.inner.flush()
                raise OSError("no space left on device")

            def __getattr__(self, name):
                return getattr(self.inner, name)

        (d0, s0, r0), (d1, s1, r1), _ = _log_entries()
        root = tmp_path / "store"
        with ResultStore(root) as store:
            store.open_writer()
            store._writer = TornWriter(store._writer)
            with pytest.raises(OSError, match="no space"):
                store.put(d0, s0, r0)
            assert not store.has(d0)
            store.put(d1, s1, r1)  # a fresh writer drops the torn half
        with ResultStore(root) as store:
            assert store.object_digests() == [d1]
            assert run_result_digest(store.get(d1)) == run_result_digest(r1)

    @settings(max_examples=40, deadline=None)
    @given(cut=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_truncated_tail_serves_complete_records(self, cut):
        with tempfile.TemporaryDirectory() as scratch:
            root = os.path.join(scratch, "store")
            ends = _filled_store(root)
            log = os.path.join(root, RESULTS_LOG)
            # Cut somewhere inside the last record, header included.
            size = ends[-2] + int(cut * (ends[-1] - ends[-2]))
            with open(log, "r+b") as handle:
                handle.truncate(size)
            entries = _log_entries()
            with ResultStore(root) as store:
                assert store.object_digests() == sorted(
                    digest for digest, _, _ in entries[:-1]
                )
                for digest, _, result in entries[:-1]:
                    assert run_result_digest(store.get(digest)) == (
                        run_result_digest(result)
                    )
                digest, spec, result = entries[-1]
                assert store.get(digest) is None
                # The writer drops the torn tail and appends after it:
                # the log ends up byte for byte where it was.
                store.put(digest, spec, result)
            assert os.path.getsize(log) == ends[-1]
            with ResultStore(root) as store:
                assert store.object_digests() == sorted(
                    digest for digest, _, _ in entries
                )
                assert run_result_digest(store.get(digest)) == (
                    run_result_digest(result)
                )
