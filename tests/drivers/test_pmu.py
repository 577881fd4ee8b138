"""Tests for the two-counter PMU: programming, counting, wrap, multiplexing."""

import pytest

from repro.drivers.msr import IA32_TIME_STAMP_COUNTER, MSRFile
from repro.drivers.pmu import PMU, EventMultiplexer
from repro.errors import PMUError
from repro.platform.events import COUNTER_WIDTH_BITS, Event

from tests.drivers.counts import advance


@pytest.fixture()
def pmu():
    return PMU(MSRFile())


class TestProgramming:
    def test_two_counters_only(self, pmu):
        with pytest.raises(PMUError, match="two-counter|only"):
            pmu.program_events(
                [Event.INST_DECODED, Event.INST_RETIRED, Event.L2_RQSTS]
            )

    def test_pm_and_ps_event_sets_fit(self, pmu):
        pmu.program_events([Event.INST_DECODED])  # PM
        pmu.program_events(
            [Event.INST_RETIRED, Event.DCU_MISS_OUTSTANDING]
        )  # PS
        assert pmu.configured_event(0) is Event.INST_RETIRED
        assert pmu.configured_event(1) is Event.DCU_MISS_OUTSTANDING

    def test_programming_clears_counter(self, pmu):
        pmu.program(0, Event.INST_RETIRED)
        advance(pmu, 1000, {Event.INST_RETIRED: 1000})
        assert pmu.read(0) == 1000
        pmu.program(0, Event.INST_RETIRED)
        assert pmu.read(0) == 0

    def test_partial_programming_disables_other_counter(self, pmu):
        pmu.program_events([Event.INST_DECODED, Event.INST_RETIRED])
        pmu.program_events([Event.INST_DECODED])
        assert pmu.configured_event(1) is None

    def test_invalid_counter_index(self, pmu):
        with pytest.raises(PMUError):
            pmu.program(2, Event.INST_RETIRED)
        with pytest.raises(PMUError):
            pmu.read(-1)

    def test_invalid_event_rejected(self, pmu):
        with pytest.raises(PMUError):
            pmu.program(0, "not-an-event")


class TestCounting:
    def test_snapshot_delta(self, pmu):
        pmu.program_events([Event.INST_DECODED, Event.INST_RETIRED])
        before = pmu.snapshot()
        advance(pmu, 10_000,
                {Event.INST_DECODED: 15_000, Event.INST_RETIRED: 10_000})
        after = pmu.snapshot()
        assert before.delta(after) == (15_000.0, 10_000.0, 10_000.0)
        assert after.tsc - before.tsc == 10_000

    def test_delta_across_reprogram_rejected(self, pmu):
        pmu.program_events([Event.INST_DECODED])
        before = pmu.snapshot()
        pmu.program_events([Event.INST_RETIRED])
        after = pmu.snapshot()
        with pytest.raises(PMUError, match="reprogrammed"):
            before.delta(after)


class TestWrapAround:
    def test_counter_wraps_at_40_bits(self, pmu):
        pmu.program(0, Event.INST_DECODED)
        near_wrap = (1 << COUNTER_WIDTH_BITS) - 500
        pmu._msr.poke(0xC1, near_wrap)  # hardware-side preset
        before = pmu.snapshot()
        advance(pmu, 1000, {Event.INST_DECODED: 1000})
        after = pmu.snapshot()
        assert after.values[0] < before.values[0]  # wrapped
        c0, _, _ = before.delta(after)
        assert c0 == 1000

    def test_cycle_counter_wrap_in_delta(self, pmu):
        pmu.program(0, Event.INST_DECODED)
        pmu._msr.poke(IA32_TIME_STAMP_COUNTER, (1 << COUNTER_WIDTH_BITS) - 100)
        before = pmu.snapshot()
        advance(pmu, 300)
        after = pmu.snapshot()
        assert after.cycles < before.cycles  # wrapped
        _, _, cycles = before.delta(after)
        assert cycles == 300


class TestMultiplexer:
    def test_rotation_cycles_groups(self, pmu):
        mux = EventMultiplexer(
            pmu,
            [
                (Event.INST_DECODED, Event.INST_RETIRED),
                (Event.DCU_MISS_OUTSTANDING, Event.L2_RQSTS),
            ],
        )
        first = mux.rotate()
        second = mux.rotate()
        third = mux.rotate()
        assert first == third
        assert first != second
        assert mux.duty_cycle == pytest.approx(0.5)

    def test_scale_extrapolates_by_duty_cycle(self, pmu):
        mux = EventMultiplexer(pmu, [(Event.INST_DECODED,)] * 4)
        assert mux.scale(100.0) == pytest.approx(400.0)

    def test_oversized_group_rejected(self, pmu):
        with pytest.raises(PMUError):
            EventMultiplexer(
                pmu,
                [(Event.INST_DECODED, Event.INST_RETIRED, Event.L2_RQSTS)],
            )

    def test_empty_groups_rejected(self, pmu):
        with pytest.raises(PMUError):
            EventMultiplexer(pmu, [])

    def test_current_group_before_rotate_raises(self, pmu):
        mux = EventMultiplexer(pmu, [(Event.INST_DECODED,)])
        with pytest.raises(PMUError):
            _ = mux.current_group
