"""Monitor phase: periodic performance-counter sampling.

The paper's monitoring driver "collects the counters every 10 ms with
negligible performance impact" (§III-B).  :class:`CounterSampler` is that
driver's user-level face: it programs the two physical counters, takes
wrap-aware snapshots, and converts deltas into per-cycle rates.

Because the Pentium M has only two programmable counters, a sampler
monitors at most two events at a time (plus unhalted cycles, which the
snapshot always carries).  PerformanceMaximizer needs one event
(``INST_DECODED``); PowerSave needs two (``INST_RETIRED`` and
``DCU_MISS_OUTSTANDING``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.drivers.pmu import PMU, CounterSnapshot
from repro.errors import PMUError
from repro.platform.events import Event
from repro.telemetry.bus import SampleTaken
from repro.telemetry.recorder import TelemetryRecorder


@dataclass(frozen=True)
class CounterSample:
    """One monitoring interval's worth of counter-derived rates.

    Attributes
    ----------
    interval_s:
        Wall-clock length of the interval.
    cycles:
        Unhalted cycles elapsed (the denominator of all rates).
    rates:
        Per-cycle event rates for the monitored events.
    """

    interval_s: float
    cycles: float
    rates: Mapping[Event, float]

    def rate(self, event: Event) -> float:
        """Per-cycle rate of a monitored event (KeyError if unmonitored)."""
        return self.rates[event]

    @property
    def effective_frequency_mhz(self) -> float:
        """Average clock frequency over the interval (cycles / time)."""
        if self.interval_s <= 0:
            return 0.0
        return self.cycles / self.interval_s / 1e6

    # -- convenience views used by the governors -------------------------------

    @property
    def dpc(self) -> float:
        """Decoded instructions per cycle (PM's model input)."""
        return self.rate(Event.INST_DECODED)

    @property
    def ipc(self) -> float:
        """Retired instructions per cycle (PS's performance proxy)."""
        return self.rate(Event.INST_RETIRED)

    @property
    def dcu(self) -> float:
        """DCU-miss-outstanding cycles per cycle."""
        return self.rate(Event.DCU_MISS_OUTSTANDING)

    @property
    def dcu_per_ipc(self) -> float:
        """The paper's memory-boundedness metric (Eq. 3 discriminator).

        Returns +inf for an interval with zero retired instructions (a
        fully-stalled interval is maximally memory-bound).
        """
        if self.ipc <= 0:
            return float("inf")
        return self.dcu / self.ipc


class CounterSampler:
    """Programs the PMU and produces :class:`CounterSample` streams."""

    def __init__(
        self,
        pmu: PMU,
        events: Sequence[Event],
        telemetry: TelemetryRecorder | None = None,
    ):
        if not events:
            raise PMUError("sampler needs at least one event")
        if len(events) > PMU.NUM_COUNTERS:
            raise PMUError(
                f"{len(events)} events exceed the {PMU.NUM_COUNTERS}-counter "
                "budget; PM/PS were designed to fit (paper §III)"
            )
        if len(set(events)) != len(events):
            raise PMUError(f"duplicate events: {events}")
        self._pmu = pmu
        self._events = tuple(events)
        self._last: CounterSnapshot | None = None
        self._telemetry = telemetry
        self._elapsed_s = 0.0

    @property
    def events(self) -> tuple[Event, ...]:
        """The monitored events."""
        return self._events

    def bind_telemetry(self, telemetry: TelemetryRecorder | None) -> None:
        """Reattach a recorder (used after checkpoint restore)."""
        self._telemetry = telemetry

    def __getstate__(self):
        # The recorder holds open exporter file handles; it is process
        # state, not run state, and is rebound on resume.
        state = self.__dict__.copy()
        state["_telemetry"] = None
        return state

    def start(self) -> None:
        """Program the counters and take the baseline snapshot."""
        self._pmu.program_events(self._events)
        self._last = self._pmu.snapshot()

    def sample(self, interval_s: float) -> CounterSample:
        """Close the current interval and return its rates.

        ``interval_s`` is supplied by the caller (the controller knows
        the tick length); the PMU itself provides cycle and event deltas.
        """
        if self._last is None:
            raise PMUError("sampler not started; call start() first")
        current = self._pmu.snapshot()
        c0, c1, cycles = self._last.delta(current)
        self._last = current
        counts = (c0, c1)
        rates = {}
        for index, event in enumerate(self._events):
            rates[event] = counts[index] / cycles if cycles > 0 else 0.0
        sample = CounterSample(
            interval_s=interval_s, cycles=cycles, rates=rates
        )
        self._elapsed_s += interval_s
        tel = self._telemetry
        if tel is not None and tel.enabled:
            tel.emit(
                SampleTaken(
                    time_s=self._elapsed_s,
                    interval_s=interval_s,
                    cycles=cycles,
                    effective_frequency_mhz=sample.effective_frequency_mhz,
                    rates={event.name: rate for event, rate in rates.items()},
                )
            )
        return sample


class MultiplexedCounterSampler:
    """Rotates event groups through the two counters, one group per tick.

    Extension utility for policies that need more events than the PMU
    has counters (the Isci-style component power model).  Each
    :meth:`sample` call closes the interval for the *currently
    programmed* group, then programs the next group for the following
    interval.  Consumers keep their own last-known value per event;
    rates for unprogrammed events are simply absent from the sample.
    """

    def __init__(
        self,
        pmu: PMU,
        groups: Sequence[Sequence[Event]],
        telemetry: TelemetryRecorder | None = None,
    ):
        if not groups:
            raise PMUError("multiplexed sampler needs at least one group")
        # Inner samplers stay un-instrumented; the rotation emits its own
        # sample events so timestamps cover every tick, not every Nth.
        self._samplers = [CounterSampler(pmu, group) for group in groups]
        self._index = 0
        self._telemetry = telemetry
        self._elapsed_s = 0.0

    @property
    def groups(self) -> tuple[tuple[Event, ...], ...]:
        """The rotation's event groups."""
        return tuple(s.events for s in self._samplers)

    def bind_telemetry(self, telemetry: TelemetryRecorder | None) -> None:
        """Reattach a recorder (used after checkpoint restore)."""
        self._telemetry = telemetry

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_telemetry"] = None
        return state

    def start(self) -> None:
        """Program the first group and take its baseline snapshot."""
        self._index = 0
        self._samplers[0].start()

    def sample(self, interval_s: float) -> CounterSample:
        """Close the current group's interval and rotate to the next."""
        sample = self._samplers[self._index].sample(interval_s)
        self._index = (self._index + 1) % len(self._samplers)
        self._samplers[self._index].start()
        self._elapsed_s += interval_s
        tel = self._telemetry
        if tel is not None and tel.enabled:
            tel.emit(
                SampleTaken(
                    time_s=self._elapsed_s,
                    interval_s=interval_s,
                    cycles=sample.cycles,
                    effective_frequency_mhz=sample.effective_frequency_mhz,
                    rates={
                        event.name: rate
                        for event, rate in sample.rates.items()
                    },
                )
            )
        return sample
