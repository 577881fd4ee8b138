"""Result store: canonical digests, verified reads, quarantine records."""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.campaign.store import (
    STORE_FORMAT_VERSION,
    ResultStore,
    campaign_cell_spec,
    cell_digest,
)
from repro.checkpoint.digest import run_result_digest
from repro.errors import CampaignError
from repro.exec.core import execute_cell
from repro.exec.plan import ExperimentConfig, GovernorSpec, RunCell, RunPlan
from repro.platform.machine import MachineConfig
from repro.traces.corpus import corpus_trace

CONFIG = ExperimentConfig(scale=0.05, seed=1)
CELL = RunCell(workload="ammp", governor=GovernorSpec.fixed(1600.0))
PLAN = RunPlan(config=CONFIG, cells=(CELL,))


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

    def test_bespoke_machine_config_rejected(self):
        plan = RunPlan(
            config=ExperimentConfig(
                scale=0.05, machine=MachineConfig(seed=99)
            ),
            cells=(CELL,),
        )
        with pytest.raises(CampaignError, match="content-addressed"):
            cell_digest(CELL, plan)

    def test_spec_carries_format_version(self):
        spec = campaign_cell_spec(CELL, PLAN)
        assert spec["format"] == STORE_FORMAT_VERSION


class TestResultStore:
    def test_put_get_round_trip_verified(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        digest = cell_digest(CELL, PLAN)
        result = execute_cell(CELL, CONFIG)
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
        path = store._object_path(digest)
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload["result_digest"] = {"samples_sha256": "forged"}
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        with pytest.raises(CampaignError, match="bit-identity"):
            store.get(digest)

    def test_unreadable_object_is_a_counted_miss(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        path = store._object_path("deadbeef")
        with open(path, "wb") as handle:
            handle.write(b"\x80\x04 torn mid-pickle")
        assert store.get("deadbeef") is None
        assert store.unreadable == 1

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
