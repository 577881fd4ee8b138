"""ContentionModel unit behaviour: self-exclusion, shares, saturation."""

from __future__ import annotations

import pytest

from repro.multicore.contention import ContentionModel
from repro.platform.caches import PENTIUM_M_755_TIMING


def test_single_core_gets_base_timing_object_back():
    model = ContentionModel()
    (timing,) = model.effective_timings(PENTIUM_M_755_TIMING, [2.0e9])
    assert timing is PENTIUM_M_755_TIMING


def test_idle_neighbours_exert_no_pressure():
    model = ContentionModel()
    timings = model.effective_timings(
        PENTIUM_M_755_TIMING, [1.5e9, 0.0, 0.0, 0.0]
    )
    # The busy core's own traffic never slows itself down...
    assert timings[0] is PENTIUM_M_755_TIMING
    # ...but an idle core *would* queue behind it if it touched memory.
    assert timings[1].dram_latency_ns > PENTIUM_M_755_TIMING.dram_latency_ns


def test_external_pressure_inflates_latency_and_cuts_share():
    base = PENTIUM_M_755_TIMING
    model = ContentionModel()
    loaded, _ = model.effective_timings(base, [1.0e9, 1.0e9])
    assert loaded.dram_latency_ns > base.dram_latency_ns
    assert loaded.bus_bandwidth_bytes_per_s < base.bus_bandwidth_bytes_per_s
    assert loaded.l2_latency_cycles == base.l2_latency_cycles


def test_pressure_is_self_excluding():
    """A core's own demand never slows itself down."""
    base = PENTIUM_M_755_TIMING
    model = ContentionModel()
    small_self, _ = model.effective_timings(base, [0.1e9, 1.0e9])
    big_self, _ = model.effective_timings(base, [2.0e9, 1.0e9])
    # Same external demand, so the latency inflation from the
    # neighbour must not grow with the core's own traffic.
    assert big_self.dram_latency_ns <= small_self.dram_latency_ns * 1.001


def test_oversubscribed_shares_sum_to_ceiling():
    base = PENTIUM_M_755_TIMING
    model = ContentionModel()
    demands = [2.0e9, 2.0e9, 2.0e9, 2.0e9]
    timings = model.effective_timings(base, demands)
    total_share = sum(t.bus_bandwidth_bytes_per_s for t in timings)
    ceiling = model.ceiling(base)
    assert total_share == pytest.approx(ceiling, rel=1e-9)


def test_undersubscribed_share_is_the_leftover():
    base = PENTIUM_M_755_TIMING
    model = ContentionModel()
    first, second = model.effective_timings(base, [0.5e9, 0.4e9])
    ceiling = model.ceiling(base)
    assert first.bus_bandwidth_bytes_per_s == pytest.approx(ceiling - 0.4e9)
    assert second.bus_bandwidth_bytes_per_s == pytest.approx(ceiling - 0.5e9)


def test_explicit_ceiling_overrides_base_bus_bandwidth():
    model = ContentionModel(bandwidth_ceiling_bytes_per_s=1.0e9)
    assert model.ceiling(PENTIUM_M_755_TIMING) == 1.0e9


def test_latency_multiplier_stays_finite_under_extreme_demand():
    model = ContentionModel()
    timings = model.effective_timings(
        PENTIUM_M_755_TIMING, [1.0e12, 1.0e12]
    )
    cap = 1.0 + model.latency_slope * model.max_utilization / (
        1.0 - model.max_utilization
    )
    for t in timings:
        assert t.dram_latency_ns <= PENTIUM_M_755_TIMING.dram_latency_ns * cap


def test_zero_demand_core_on_saturated_bus_gets_a_positive_share():
    """No demand means no proportional share, yet the timing stays valid.

    It competes as one of the streams the saturated bus arbitrates.
    """
    base = PENTIUM_M_755_TIMING
    model = ContentionModel()
    ceiling = base.bus_bandwidth_bytes_per_s
    idle, busy, _ = model.effective_timings(
        base, [0.0, 2.0 * ceiling, 2.0 * ceiling]
    )
    assert idle.bus_bandwidth_bytes_per_s == pytest.approx(ceiling / 3)
    assert busy.bus_bandwidth_bytes_per_s == pytest.approx(ceiling / 2)
