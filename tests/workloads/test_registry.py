"""Tests for the workload registry."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.registry import WorkloadRegistry, default_registry, get_workload
from repro.workloads.base import Phase, Workload


def test_default_registry_has_suite_and_loops():
    reg = default_registry()
    assert len(reg) == 38  # 26 SPEC + 12 MS-Loops
    assert "swim" in reg
    assert "FMA-256KB" in reg
    assert "nonexistent" not in reg


def test_default_registry_is_cached():
    assert default_registry() is default_registry()


def test_get_workload_error_lists_names():
    with pytest.raises(WorkloadError, match="available"):
        get_workload("bogus")


def test_spec_suite_order_and_length():
    suite = default_registry().spec_suite()
    assert len(suite) == 26
    assert suite[0].name == "gzip"  # SPECint first


def test_microbenchmarks_group():
    micro = default_registry().microbenchmarks()
    assert len(micro) == 12
    assert all(w.category == "microbenchmark" for w in micro)


def test_by_category():
    reg = default_registry()
    memory = reg.by_category("memory")
    assert {w.name for w in memory} >= {"swim", "mcf", "art"}


def test_registry_rejects_duplicates():
    phase = Phase(name="p", instructions=1.0)
    w = Workload("dup", (phase,), 1.0)
    with pytest.raises(WorkloadError):
        WorkloadRegistry((w, w))


def test_names_sorted():
    names = default_registry().names
    assert list(names) == sorted(names)


def test_get_workload_builds_ms_loops_at_any_footprint():
    from repro.units import KIB
    from repro.workloads.microbenchmarks import (
        build_microbenchmark,
        get_loop_spec,
    )

    workload = get_workload("MCOPY-64KB")
    assert "MCOPY-64KB" not in default_registry()
    assert workload == build_microbenchmark(get_loop_spec("MCOPY"), 64 * KIB)
    assert get_workload("FMA-256KB") is default_registry().get("FMA-256KB")
    # Only the canonical label of a known loop names a workload.
    for name in ("MCOPY-1024KB", "NOPE-8KB", "MCOPY-0KB", "MCOPY-KB"):
        with pytest.raises(WorkloadError, match="unknown workload"):
            get_workload(name)
