"""Tests for the Monitor phase (counter sampling)."""

import pytest

from repro.core.sampling import CounterSampler, MultiplexedCounterSampler
from repro.drivers.msr import MSRFile
from repro.drivers.pmu import PMU
from repro.errors import PMUError
from repro.platform.events import Event

from tests.drivers.counts import advance


@pytest.fixture()
def pmu():
    return PMU(MSRFile())


def test_sampler_enforces_counter_budget(pmu):
    with pytest.raises(PMUError):
        CounterSampler(
            pmu, [Event.INST_DECODED, Event.INST_RETIRED, Event.L2_RQSTS]
        )


def test_sampler_rejects_empty_and_duplicates(pmu):
    with pytest.raises(PMUError):
        CounterSampler(pmu, [])
    with pytest.raises(PMUError):
        CounterSampler(pmu, [Event.INST_DECODED, Event.INST_DECODED])


def test_sample_before_start_raises(pmu):
    sampler = CounterSampler(pmu, [Event.INST_DECODED])
    with pytest.raises(PMUError, match="not started"):
        sampler.sample(0.01)


def test_rates_recovered_from_deltas(pmu):
    sampler = CounterSampler(
        pmu, [Event.INST_RETIRED, Event.DCU_MISS_OUTSTANDING]
    )
    sampler.start()
    advance(pmu, 20_000_000, {Event.INST_RETIRED: 22_000_000,
                              Event.DCU_MISS_OUTSTANDING: 7_000_000})
    sample = sampler.sample(0.01)
    assert sample.ipc == pytest.approx(1.1, rel=1e-3)
    assert sample.dcu == pytest.approx(0.35, rel=1e-3)
    assert sample.cycles == pytest.approx(20_000_000)


def test_effective_frequency(pmu):
    sampler = CounterSampler(pmu, [Event.INST_RETIRED])
    sampler.start()
    advance(pmu, 20_000_000)
    sample = sampler.sample(0.01)
    assert sample.effective_frequency_mhz == pytest.approx(2000.0)


def test_dcu_per_ipc_infinite_when_stalled(pmu):
    sampler = CounterSampler(
        pmu, [Event.INST_RETIRED, Event.DCU_MISS_OUTSTANDING]
    )
    sampler.start()
    advance(pmu, 1_000_000, {Event.DCU_MISS_OUTSTANDING: 900_000})
    sample = sampler.sample(0.01)
    assert sample.dcu_per_ipc == float("inf")


def test_consecutive_samples_are_independent(pmu):
    sampler = CounterSampler(pmu, [Event.INST_RETIRED])
    sampler.start()
    advance(pmu, 10_000_000, {Event.INST_RETIRED: 5_000_000})
    first = sampler.sample(0.005)
    advance(pmu, 10_000_000, {Event.INST_RETIRED: 15_000_000})
    second = sampler.sample(0.005)
    assert first.ipc == pytest.approx(0.5, rel=1e-3)
    assert second.ipc == pytest.approx(1.5, rel=1e-3)


def test_dpc_accessor_requires_monitored_event(pmu):
    sampler = CounterSampler(pmu, [Event.INST_RETIRED])
    sampler.start()
    advance(pmu, 1_000_000, {Event.INST_RETIRED: 1_000_000})
    sample = sampler.sample(0.01)
    with pytest.raises(KeyError):
        _ = sample.dpc


class TestMultiplexedSampler:
    def test_rejects_empty_group_list(self, pmu):
        with pytest.raises(PMUError, match="at least one group"):
            MultiplexedCounterSampler(pmu, [])

    def test_single_group_degenerates_to_plain_rotation(self, pmu):
        # One group: every tick samples the same events, and the
        # modulo rotation must not double-start or skip intervals.
        sampler = MultiplexedCounterSampler(pmu, [[Event.INST_DECODED]])
        sampler.start()
        advance(pmu, 10_000_000, {Event.INST_DECODED: 12_000_000})
        first = sampler.sample(0.01)
        advance(pmu, 10_000_000, {Event.INST_DECODED: 6_000_000})
        second = sampler.sample(0.01)
        assert first.dpc == pytest.approx(1.2, rel=1e-3)
        assert second.dpc == pytest.approx(0.6, rel=1e-3)

    def test_zero_interval_sample_has_zero_rates(self, pmu):
        # No cycles elapsed between snapshots: rates fall back to 0.0
        # rather than dividing by zero, and the frequency reads 0.
        sampler = MultiplexedCounterSampler(pmu, [[Event.INST_DECODED]])
        sampler.start()
        sample = sampler.sample(0.0)
        assert sample.cycles == 0
        assert sample.rates[Event.INST_DECODED] == 0.0
        assert sample.effective_frequency_mhz == 0.0

    def test_sampling_before_start_raises_pmu_error(self, pmu):
        sampler = MultiplexedCounterSampler(
            pmu, [[Event.INST_DECODED], [Event.INST_RETIRED]]
        )
        with pytest.raises(PMUError, match="not started"):
            sampler.sample(0.01)

    def test_group_validation_matches_plain_sampler(self, pmu):
        with pytest.raises(PMUError):
            MultiplexedCounterSampler(
                pmu,
                [[Event.INST_DECODED, Event.INST_RETIRED, Event.L2_RQSTS]],
            )
