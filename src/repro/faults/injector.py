"""The fault injector: turns a :class:`FaultPlan` into concrete faults.

A :class:`FaultInjector` owns one seeded RNG *stream per subsystem*
(sampler, meter, driver, thermal), so enabling a fault model in
one subsystem never perturbs the fault sequence of another -- plans stay
reproducible as they are grown.  Wrapped components keep their existing
interfaces exactly:

* :class:`FaultySampler` wraps a :class:`~repro.core.sampling.
  CounterSampler` (or the multiplexed variant) and injects dropped,
  duplicated, garbled and overflow-corrupted samples;
* :class:`FaultyPowerMeter` wraps a :class:`~repro.measurement.
  power_meter.PowerMeter` and injects dropout (zero) and spike samples;
* :class:`FaultySpeedStep` wraps the :class:`~repro.drivers.speedstep.
  SpeedStepDriver` and injects failed and stalled p-state transitions;
* :meth:`FaultInjector.observe_temperature` freezes thermal readings
  for stuck-sensor episodes.

Every injected fault is counted on the injector and -- when a telemetry
recorder is bound -- emitted as a :class:`~repro.telemetry.bus.
FaultInjected` event plus a ``faults.injected.*`` metric, so the
``repro-power faults-report`` aggregation can reconcile injected versus
recovered counts.

When the plan is disabled (or a subsystem's model has nothing to fire)
the ``wrap_*`` helpers return the component *unwrapped* and no
randomness is consumed: a disabled plan is bit-for-bit identical to no
plan at all.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.sampling import CounterSample
from repro.errors import InjectedTransitionError, SampleDropped
from repro.faults.plan import FaultPlan
from repro.telemetry.bus import FaultInjected
from repro.telemetry.recorder import TelemetryRecorder

#: 40-bit counter span, the wraparound artifact magnitude (matches the
#: simulated Pentium M PMU counter width).
_COUNTER_SPAN = float(1 << 40)

_RNG_STREAMS = ("sample", "meter", "transition", "thermal")


class FaultInjector:
    """Seeded, deterministic fault source for one run."""

    def __init__(
        self,
        plan: FaultPlan,
        telemetry: TelemetryRecorder | None = None,
    ):
        self.plan = plan
        self._telemetry = telemetry
        self._rngs = {
            name: np.random.default_rng([plan.seed, index])
            for index, name in enumerate(_RNG_STREAMS)
        }
        self._injected: dict[str, int] = {}
        self._stuck_until_s: float | None = None
        self._stuck_value_c: float = 0.0
        self._clock = lambda: 0.0

    # -- bookkeeping -----------------------------------------------------------

    @property
    def active(self) -> bool:
        """True when this injector can fire at least one fault."""
        return self.plan.active

    @property
    def injected(self) -> Mapping[str, int]:
        """Injected fault counts keyed ``subsystem.fault``."""
        return dict(self._injected)

    @property
    def total_injected(self) -> int:
        """Total faults injected so far."""
        return sum(self._injected.values())

    def bind_telemetry(self, telemetry: TelemetryRecorder | None) -> None:
        """Attach a recorder after construction (keeps existing one)."""
        if self._telemetry is None:
            self._telemetry = telemetry

    def set_clock(self, clock) -> None:
        """Install the simulated-time source used to stamp fault events."""
        self._clock = clock

    @property
    def now_s(self) -> float:
        """Current simulated time (0.0 before a clock is bound)."""
        return self._clock()

    def rng(self, stream: str) -> np.random.Generator:
        """The named subsystem's private RNG stream."""
        return self._rngs[stream]

    def record(
        self, subsystem: str, fault: str, time_s: float, detail: str = ""
    ) -> None:
        """Count one injected fault and publish it on the telemetry bus."""
        key = f"{subsystem}.{fault}"
        self._injected[key] = self._injected.get(key, 0) + 1
        tel = self._telemetry
        if tel is not None and tel.enabled:
            tel.metrics.counter(f"faults.injected.{key}").inc()
            tel.emit(
                FaultInjected(
                    time_s=time_s, subsystem=subsystem, fault=fault,
                    detail=detail,
                )
            )

    # -- wrapping --------------------------------------------------------------

    def wrap_sampler(self, sampler):
        """Wrap a counter sampler; returns it unwrapped when inactive."""
        if not (self.plan.enabled and self.plan.sample.any_enabled):
            return sampler
        return FaultySampler(sampler, self)

    def wrap_meter(self, meter):
        """Wrap a power meter; returns it unwrapped when inactive."""
        if not (self.plan.enabled and self.plan.meter.any_enabled):
            return meter
        return FaultyPowerMeter(meter, self)

    def wrap_speedstep(self, driver, dvfs):
        """Wrap the SpeedStep driver; returns it unwrapped when inactive."""
        if not (self.plan.enabled and self.plan.transition.any_enabled):
            return driver
        return FaultySpeedStep(driver, dvfs, self)

    # -- thermal ---------------------------------------------------------------

    def observe_temperature(
        self, raw_c: float | None, now_s: float
    ) -> float | None:
        """Filter one thermal reading through the stuck-sensor model."""
        cfg = self.plan.thermal
        if raw_c is None or not (self.plan.enabled and cfg.any_enabled):
            return raw_c
        if self._stuck_until_s is not None:
            if now_s < self._stuck_until_s:
                return self._stuck_value_c
            self._stuck_until_s = None
        if self._rngs["thermal"].random() < cfg.stuck_prob:
            self._stuck_until_s = now_s + cfg.stuck_duration_s
            self._stuck_value_c = raw_c
            self.record(
                "thermal", "stuck", now_s,
                detail=f"{raw_c:.2f}C for {cfg.stuck_duration_s:.3f}s",
            )
        return raw_c


class FaultySampler:
    """A counter sampler with injected sampling faults.

    The inner sampler always advances (its PMU snapshot is taken before
    a fault is decided), so fault-free neighbours of a dropped sample
    still see correct single-interval deltas.
    """

    def __init__(self, inner, injector: FaultInjector):
        self._inner = inner
        self._injector = injector
        self._cfg = injector.plan.sample
        self._rng = injector.rng("sample")
        self._elapsed_s = 0.0
        self._last_returned: CounterSample | None = None

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def start(self) -> None:
        """Start the wrapped sampler."""
        self._inner.start()

    def sample(self, interval_s: float) -> CounterSample:
        """Sample through the fault models (may raise ``SampleDropped``)."""
        sample = self._inner.sample(interval_s)
        self._elapsed_s += interval_s
        cfg, rng = self._cfg, self._rng
        now = self._injector.now_s or self._elapsed_s
        if cfg.drop_prob and rng.random() < cfg.drop_prob:
            self._injector.record("sampler", "drop", now)
            raise SampleDropped(
                f"injected dropped counter sample at t={now:.3f}s"
            )
        if cfg.duplicate_prob and rng.random() < cfg.duplicate_prob:
            if self._last_returned is not None:
                self._injector.record("sampler", "duplicate", now)
                return self._last_returned
        if cfg.garble_prob and rng.random() < cfg.garble_prob:
            magnitude = cfg.garble_magnitude
            factors = {
                event: 10.0 ** rng.uniform(-magnitude, magnitude)
                for event in sample.rates
            }
            sample = CounterSample(
                interval_s=sample.interval_s,
                cycles=sample.cycles,
                rates={
                    event: rate * factors[event]
                    for event, rate in sample.rates.items()
                },
            )
            self._injector.record("sampler", "garble", now)
        elif cfg.overflow_prob and rng.random() < cfg.overflow_prob:
            # A 40-bit wraparound misread: the delta gains a full counter
            # span, which shows up as an absurd per-cycle rate.
            wrap = _COUNTER_SPAN / max(sample.cycles, 1.0)
            sample = CounterSample(
                interval_s=sample.interval_s,
                cycles=sample.cycles,
                rates={
                    event: rate + wrap
                    for event, rate in sample.rates.items()
                },
            )
            self._injector.record("sampler", "overflow", now)
        self._last_returned = sample
        return sample


class FaultyPowerMeter:
    """A power meter whose closed samples may drop out or spike.

    Wraps by composition and corrupts samples *at close time*, so the
    accumulation arithmetic (and the underlying sense/ADC noise streams)
    stay untouched: disabling injection restores the exact original
    sample sequence.
    """

    def __init__(self, inner, injector: FaultInjector):
        self._inner = inner
        self._injector = injector
        self._cfg = injector.plan.meter
        self._rng = injector.rng("meter")
        self._corrupted = inner.sample_count
        self._drift_started = False

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def accumulate(self, power_watts: float, duration_s: float) -> None:
        """Feed the wrapped meter, then corrupt newly closed samples."""
        self._inner.accumulate(power_watts, duration_s)
        self._corrupt_new_samples()

    def flush(self) -> None:
        """Flush the wrapped meter, then corrupt the final sample."""
        self._inner.flush()
        self._corrupt_new_samples()

    def _corrupt_new_samples(self) -> None:
        # In-package: corrupt the wrapped meter's watts column in place.
        samples = self._inner._samples
        times, watts = samples.time_s, samples.watts
        cfg, rng = self._cfg, self._rng
        while self._corrupted < len(watts):
            index = self._corrupted
            time_s = times[index]
            # Gain drift is deterministic and applied first, so the
            # dropout/spike RNG draws match a drift-free plan exactly.
            gain = cfg.drift_gain(time_s)
            if gain != 1.0:
                watts[index] = watts[index] * gain
                if not self._drift_started:
                    self._drift_started = True
                    self._injector.record(
                        "meter", "drift", time_s,
                        detail=f"+{cfg.drift_rate_per_s * 100:.2f}%/s "
                        f"from t={cfg.drift_start_s:.2f}s",
                    )
            if cfg.dropout_prob and rng.random() < cfg.dropout_prob:
                watts[index] = 0.0
                self._injector.record("meter", "dropout", time_s)
            elif cfg.spike_prob and rng.random() < cfg.spike_prob:
                factor = rng.uniform(2.0, cfg.spike_factor)
                watts[index] = watts[index] * factor
                self._injector.record(
                    "meter", "spike", time_s, detail=f"x{factor:.2f}"
                )
            self._corrupted += 1


class FaultySpeedStep:
    """A SpeedStep driver whose transitions may fail or stall."""

    def __init__(self, inner, dvfs, injector: FaultInjector):
        self._inner = inner
        self._dvfs = dvfs
        self._injector = injector
        self._cfg = injector.plan.transition
        self._rng = injector.rng("transition")

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def set_pstate(self, pstate):
        """Request a p-state; injected failures raise, stalls cost time."""
        cfg, rng = self._cfg, self._rng
        now = self._injector.now_s
        if cfg.fail_prob and rng.random() < cfg.fail_prob:
            self._injector.record(
                "driver", "transition_fail", now,
                detail=f"-> {pstate.frequency_mhz:.0f} MHz",
            )
            raise InjectedTransitionError(
                f"injected transition failure to {pstate.frequency_mhz:.0f} "
                "MHz (PLL failed to relock)"
            )
        result = self._inner.set_pstate(pstate)
        if cfg.stall_prob and rng.random() < cfg.stall_prob:
            self._dvfs.charge_dead_time(cfg.stall_s)
            self._injector.record(
                "driver", "transition_stall", now,
                detail=f"+{cfg.stall_s * 1e3:.1f} ms",
            )
        return result

    def set_frequency(self, frequency_mhz: float):
        """Route through :meth:`set_pstate` so faults apply here too."""
        return self.set_pstate(self._inner.table.by_frequency(frequency_mhz))
