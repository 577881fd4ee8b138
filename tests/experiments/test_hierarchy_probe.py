"""Tests for the memory-hierarchy probe experiment."""

import pytest

from repro.experiments import hierarchy_probe, run_section
from repro.exec import ExperimentConfig


@pytest.fixture(scope="module")
def result():
    return run_section(hierarchy_probe, ExperimentConfig(scale=0.1))


def test_three_latency_plateaus(result):
    plateaus = result.latency_plateaus_ns()
    assert set(plateaus) == {"L1", "L2", "DRAM"}
    assert plateaus["L1"] < plateaus["L2"] < plateaus["DRAM"]
    # DRAM latency near the platform constant (110 ns load-to-use).
    assert plateaus["DRAM"] == pytest.approx(110.0, rel=0.15)


def test_bandwidth_collapses_at_dram(result):
    by_level = result.by_level()
    l2_bw = max(p.copy_bandwidth_gb_s for p in by_level["L2"])
    dram_bw = max(p.copy_bandwidth_gb_s for p in by_level["DRAM"])
    # On-chip copies run many times faster than the FSB allows.
    assert l2_bw > 3 * dram_bw
    # DRAM copy bandwidth is bounded by the bus (2.8 GB/s raw, less
    # after writeback traffic).
    assert dram_bw < 2.8


def test_plateaus_are_flat_within_level(result):
    for level, points in result.by_level().items():
        latencies = [p.load_latency_ns for p in points]
        assert max(latencies) / min(latencies) < 1.2, level


def test_latency_plateau_tracks_frequency_for_on_chip_levels():
    slow = run_section(
        hierarchy_probe, ExperimentConfig(scale=0.1), frequency_mhz=1000.0
    ).latency_plateaus_ns()
    fast = run_section(
        hierarchy_probe, ExperimentConfig(scale=0.1), frequency_mhz=2000.0
    ).latency_plateaus_ns()
    # On-chip latency is fixed in cycles -> ns double at half the clock.
    assert slow["L1"] == pytest.approx(2 * fast["L1"], rel=0.05)
    # Off-chip latency is fixed in ns -> (nearly) frequency-invariant.
    assert slow["DRAM"] == pytest.approx(fast["DRAM"], rel=0.1)


def test_render(result):
    out = hierarchy_probe.render(result)
    assert "latency plateaus" in out
    assert "DRAM" in out
