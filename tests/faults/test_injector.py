"""Tests for the seeded fault injector and its wrappers."""

import pytest

from repro.core.sampling import CounterSampler
from repro.drivers.msr import MSRFile
from repro.drivers.pmu import PMU
from repro.errors import InjectedTransitionError, SampleDropped
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultySampler,
    MeterFaults,
    SampleFaults,
    TransitionFaults,
)
from repro.measurement.power_meter import PowerMeter
from repro.platform.events import Event
from repro.platform.machine import Machine, MachineConfig

from tests.drivers.counts import advance

#: One 10 ms interval at 1 GHz decoding 1.4 instructions per cycle.
_TICK = (10_000_000, {Event.INST_DECODED: 14_000_000})


def _drop_pattern(plan, ticks=200):
    """Which of ``ticks`` samples were dropped under ``plan``."""
    pmu = PMU(MSRFile())
    injector = FaultInjector(plan)
    sampler = injector.wrap_sampler(
        CounterSampler(pmu, [Event.INST_DECODED])
    )
    sampler.start()
    dropped = []
    for i in range(ticks):
        advance(pmu, *_TICK)
        try:
            sampler.sample(0.01)
        except SampleDropped:
            dropped.append(i)
    return dropped


class TestDeterminism:
    def test_same_plan_same_fault_sequence(self):
        plan = FaultPlan(seed=11, sample=SampleFaults(drop_prob=0.1))
        assert _drop_pattern(plan) == _drop_pattern(plan)
        assert _drop_pattern(plan)  # and some faults actually fired

    def test_different_seed_different_sequence(self):
        a = FaultPlan(seed=1, sample=SampleFaults(drop_prob=0.1))
        b = FaultPlan(seed=2, sample=SampleFaults(drop_prob=0.1))
        assert _drop_pattern(a) != _drop_pattern(b)

    def test_streams_are_independent_across_subsystems(self):
        # Enabling meter faults must not shift the sampler's sequence:
        # each subsystem draws from its own seeded stream.
        bare = FaultPlan(seed=11, sample=SampleFaults(drop_prob=0.1))
        with_meter = FaultPlan(
            seed=11,
            sample=SampleFaults(drop_prob=0.1),
            meter=MeterFaults(dropout_prob=0.5),
        )
        assert _drop_pattern(bare) == _drop_pattern(with_meter)


class TestWrapping:
    def test_inactive_sections_return_component_unwrapped(self):
        injector = FaultInjector(
            FaultPlan(sample=SampleFaults(drop_prob=0.5), enabled=False)
        )
        pmu = PMU(MSRFile())
        sampler = CounterSampler(pmu, [Event.INST_DECODED])
        meter = PowerMeter(interval_s=0.01)
        assert injector.wrap_sampler(sampler) is sampler
        assert injector.wrap_meter(meter) is meter
        assert not injector.active

    def test_enabled_section_wraps(self):
        injector = FaultInjector(
            FaultPlan(sample=SampleFaults(drop_prob=0.5))
        )
        pmu = PMU(MSRFile())
        sampler = CounterSampler(pmu, [Event.INST_DECODED])
        assert isinstance(injector.wrap_sampler(sampler), FaultySampler)
        # The meter section is inert, so the meter stays unwrapped.
        meter = PowerMeter(interval_s=0.01)
        assert injector.wrap_meter(meter) is meter


class TestFaultySampler:
    def _sampler(self, sample_faults, seed=0):
        pmu = PMU(MSRFile())
        injector = FaultInjector(FaultPlan(seed=seed, sample=sample_faults))
        sampler = injector.wrap_sampler(
            CounterSampler(pmu, [Event.INST_DECODED])
        )
        sampler.start()
        return pmu, sampler, injector

    def test_drop_raises_and_is_recorded(self):
        pmu, sampler, injector = self._sampler(SampleFaults(drop_prob=1.0))
        advance(pmu, *_TICK)
        with pytest.raises(SampleDropped):
            sampler.sample(0.01)
        assert injector.injected == {"sampler.drop": 1}

    def test_duplicate_returns_previous_sample(self):
        pmu, sampler, injector = self._sampler(
            SampleFaults(duplicate_prob=1.0)
        )
        advance(pmu, *_TICK)
        first = sampler.sample(0.01)  # nothing to duplicate yet
        advance(pmu, *_TICK)
        second = sampler.sample(0.01)
        assert second is first
        assert injector.injected == {"sampler.duplicate": 1}

    def test_garble_corrupts_rates(self):
        pmu, sampler, injector = self._sampler(SampleFaults(garble_prob=1.0))
        advance(pmu, *_TICK)
        sample = sampler.sample(0.01)
        assert sample.dpc != pytest.approx(1.4, rel=1e-3)
        assert injector.injected == {"sampler.garble": 1}

    def test_overflow_inflates_rates_beyond_plausibility(self):
        pmu, sampler, injector = self._sampler(
            SampleFaults(overflow_prob=1.0)
        )
        advance(pmu, *_TICK)
        sample = sampler.sample(0.01)
        assert sample.dpc > 100.0  # a full 40-bit span landed in the delta
        assert injector.injected == {"sampler.overflow": 1}

    def test_delegates_unknown_attributes_to_inner(self):
        _, sampler, _ = self._sampler(SampleFaults(drop_prob=0.5))
        assert sampler.events == (Event.INST_DECODED,)


class TestFaultyPowerMeter:
    def test_dropout_zeroes_closed_samples(self):
        injector = FaultInjector(
            FaultPlan(meter=MeterFaults(dropout_prob=1.0))
        )
        meter = injector.wrap_meter(PowerMeter(interval_s=0.01))
        for _ in range(5):
            meter.accumulate(12.0, 0.01)
        meter.flush()
        assert meter.samples
        assert all(s.watts == 0.0 for s in meter.samples)
        assert injector.injected["meter.dropout"] == len(meter.samples)

    def test_spike_multiplies_samples(self):
        injector = FaultInjector(
            FaultPlan(meter=MeterFaults(spike_prob=1.0, spike_factor=4.0))
        )
        meter = injector.wrap_meter(PowerMeter(interval_s=0.01))
        for _ in range(5):
            meter.accumulate(10.0, 0.01)
        meter.flush()
        # Spike factor is uniform in [2, 4]; the raw reading carries its
        # own sense noise, so just bound well above the true 10 W.
        assert all(s.watts > 15.0 for s in meter.samples)

    def test_disabled_injection_leaves_samples_untouched(self):
        plan = FaultPlan(
            meter=MeterFaults(dropout_prob=1.0), enabled=False
        )
        injector = FaultInjector(plan)
        meter = injector.wrap_meter(PowerMeter(interval_s=0.01))
        meter.accumulate(10.0, 0.01)
        meter.flush()
        assert all(s.watts > 5.0 for s in meter.samples)


class TestFaultySpeedStep:
    def _driver(self, transition_faults):
        machine = Machine(MachineConfig(seed=0))
        injector = FaultInjector(
            FaultPlan(transition=transition_faults)
        )
        driver = injector.wrap_speedstep(machine.speedstep, machine.dvfs)
        return machine, driver, injector

    def test_injected_failure_raises_transition_error(self):
        machine, driver, injector = self._driver(
            TransitionFaults(fail_prob=1.0)
        )
        slower = machine.config.table.slowest
        with pytest.raises(InjectedTransitionError):
            driver.set_pstate(slower)
        # The real driver never saw the request.
        assert machine.current_pstate != slower
        assert injector.injected == {"driver.transition_fail": 1}

    def test_stall_charges_dead_time_after_success(self):
        machine, driver, injector = self._driver(
            TransitionFaults(stall_prob=1.0, stall_s=0.004)
        )
        before = machine.dvfs.total_dead_time_s
        driver.set_pstate(machine.config.table.slowest)
        assert machine.current_pstate == machine.config.table.slowest
        # Dead time = the genuine transition cost plus the injected stall.
        assert machine.dvfs.total_dead_time_s >= before + 0.004
        assert injector.injected == {"driver.transition_stall": 1}

    def test_set_frequency_routes_through_faults(self):
        machine, driver, injector = self._driver(
            TransitionFaults(fail_prob=1.0)
        )
        with pytest.raises(InjectedTransitionError):
            driver.set_frequency(machine.config.table.slowest.frequency_mhz)


class TestMeterDrift:
    def _metered(self, meter_faults, samples=30, watts=10.0, seed=0):
        import numpy as np

        injector = FaultInjector(FaultPlan(seed=7, meter=meter_faults))
        meter = injector.wrap_meter(
            PowerMeter(interval_s=0.01, rng=np.random.default_rng(seed))
        )
        for _ in range(samples):
            meter.accumulate(watts, 0.01)
        meter.flush()
        return meter, injector

    def test_gain_applied_exactly_from_onset(self):
        faults = MeterFaults(
            drift_rate_per_s=0.5, drift_start_s=0.1, drift_max_gain=0.2
        )
        drifted, _ = self._metered(faults, samples=60)
        clean, _ = self._metered(MeterFaults(), samples=60)
        assert len(drifted.samples) == len(clean.samples)
        for bad, good in zip(drifted.samples, clean.samples):
            expected = good.watts * faults.drift_gain(good.time_s)
            assert bad.watts == pytest.approx(expected, rel=1e-12)
        # Pre-onset samples are untouched; the last is saturated at +20%.
        assert drifted.samples[0].watts == clean.samples[0].watts
        assert drifted.samples[-1].watts == pytest.approx(
            clean.samples[-1].watts * 1.2, rel=1e-12
        )

    def test_drift_onset_recorded_once(self):
        # Drift is continuous, so only its *onset* counts as an injected
        # fault -- not one event per corrupted sample.
        _, injector = self._metered(
            MeterFaults(drift_rate_per_s=0.5, drift_start_s=0.1)
        )
        assert injector.injected == {"meter.drift": 1}

    def test_drift_consumes_no_randomness(self):
        """The dropout/spike sequence is identical with drift on or off."""
        transient = MeterFaults(dropout_prob=0.3)
        with_drift = MeterFaults(
            dropout_prob=0.3, drift_rate_per_s=0.5, drift_start_s=0.05
        )
        plain, _ = self._metered(transient, samples=100)
        drifted, _ = self._metered(with_drift, samples=100)
        dropped_plain = [
            i for i, s in enumerate(plain.samples) if s.watts == 0.0
        ]
        dropped_drifted = [
            i for i, s in enumerate(drifted.samples) if s.watts == 0.0
        ]
        assert dropped_plain == dropped_drifted
        assert dropped_plain  # the fault actually fired

    def test_true_watts_untouched_by_drift(self):
        drifted, _ = self._metered(
            MeterFaults(drift_rate_per_s=0.5, drift_start_s=0.0)
        )
        for sample in drifted.samples:
            assert sample.true_watts == pytest.approx(10.0)
