"""The assembled power-measurement rig: 10 ms power samples + GPIO sync.

:class:`PowerMeter` integrates instantaneous power fed by the machine
into fixed-interval (default 10 ms) samples, passes each through the
sense-resistor and ADC models, and timestamps GPIO markers used to
delimit benchmark runs -- mirroring the paper's measurement methodology
(power sampled at 10 ms; energy computed "by summing energy values
computed from each 10 ms power sample", §IV-B2).

Closed samples are kept as four ``array('d')`` columns
(:class:`PowerSamples`): the tick kernel appends four floats per sample
close, a run's result holds a slice of those columns, and a
:class:`PowerSample` row is built only when a caller indexes one.  A
result therefore pickles as four byte buffers, not one object per
10 ms.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter, mul
from typing import Iterable, List

import numpy as np

from repro.errors import MeasurementError
from repro.measurement.adc import ADCModel
from repro.measurement.sense import SenseResistorChannel


@dataclass(frozen=True)
class PowerSample:
    """One aggregated measurement interval.

    ``time_s`` is the interval's *end* timestamp; ``watts`` the measured
    (noisy, quantized) mean power over the interval; ``true_watts`` the
    simulator's ground truth, retained for model-error analysis only --
    the paper's software never sees it.
    """

    time_s: float
    watts: float
    true_watts: float
    #: Actual span of the sample -- equal to the meter interval except
    #: for a final partial sample closed by :meth:`PowerMeter.flush`.
    duration_s: float


#: The columns of a :class:`PowerSamples`, in :class:`PowerSample` field
#: order.
_COLUMNS: tuple[str, ...] = ("time_s", "watts", "true_watts", "duration_s")


class PowerSamples(Sequence):
    """A read-only series of :class:`PowerSample` rows kept as columns.

    The ``time_s``, ``watts``, ``true_watts`` and ``duration_s``
    attributes are ``array('d')`` columns of equal length.  An int index
    builds one :class:`PowerSample`; a slice is a :class:`PowerSamples`
    of its own columns.  Two series are equal when every row is (float
    ``==``: a NaN equals no other NaN), as between tuples of the rows
    read back; a series equals itself.  A series pickles as its four
    arrays.
    """

    __slots__ = _COLUMNS
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, time_s=(), watts=(), true_watts=(), duration_s=()):
        columns = [
            array("d", column)
            for column in (time_s, watts, true_watts, duration_s)
        ]
        if len({len(column) for column in columns}) != 1:
            raise MeasurementError("power-sample columns differ in length")
        self.time_s, self.watts, self.true_watts, self.duration_s = columns

    @classmethod
    def from_samples(cls, samples: Iterable[PowerSample]) -> "PowerSamples":
        """The columns of ``samples``, in order (a ``None`` field raises
        ``TypeError``: a column holds doubles only)."""
        rows = list(map(attrgetter(*_COLUMNS), samples))
        if not rows:
            return cls()
        return cls(*zip(*rows))

    def __len__(self) -> int:
        return len(self.time_s)

    def __getitem__(self, index):
        if isinstance(index, slice):
            out = object.__new__(PowerSamples)
            out.time_s = self.time_s[index]
            out.watts = self.watts[index]
            out.true_watts = self.true_watts[index]
            out.duration_s = self.duration_s[index]
            return out
        return PowerSample(
            self.time_s[index], self.watts[index], self.true_watts[index],
            self.duration_s[index],
        )

    def __iter__(self):
        return map(
            PowerSample, self.time_s, self.watts, self.true_watts,
            self.duration_s,
        )

    def __eq__(self, other):
        if not isinstance(other, PowerSamples):
            return NotImplemented
        # A tuple equals itself, NaN rows and all.
        return other is self or (
            self.time_s == other.time_s
            and self.watts == other.watts
            and self.true_watts == other.true_watts
            and self.duration_s == other.duration_s
        )

    def __reduce__(self):
        return (
            PowerSamples,
            (self.time_s, self.watts, self.true_watts, self.duration_s),
        )

    def __repr__(self) -> str:
        return f"PowerSamples({len(self)} samples)"


@dataclass(frozen=True)
class SyncMarker:
    """A GPIO edge used to synchronize workload execution with the trace."""

    time_s: float
    label: str


class PowerMeter:
    """Integrating power meter with a fixed sampling interval.

    The machine calls :meth:`accumulate` with (power, duration) segments;
    the meter closes a sample every ``interval_s`` of accumulated time.
    Segments may straddle sample boundaries; they are split exactly.
    """

    def __init__(
        self,
        interval_s: float = 0.010,
        sense: SenseResistorChannel | None = None,
        adc: ADCModel | None = None,
        supply_voltage_v: float = 1.34,
        rng: np.random.Generator | None = None,
    ):
        if interval_s <= 0:
            raise MeasurementError("sampling interval must be positive")
        self.interval_s = interval_s
        rng = rng if rng is not None else np.random.default_rng()
        self._sense = sense if sense is not None else SenseResistorChannel(rng=rng)
        self._adc = adc if adc is not None else ADCModel(rng=rng)
        self._supply_v = supply_voltage_v
        #: Closed samples; the tick kernel appends to these columns.
        self._samples = PowerSamples()
        self._markers: List[SyncMarker] = []
        self._time_s = 0.0
        self._bucket_energy_j = 0.0
        self._bucket_time_s = 0.0

    # -- feeding ---------------------------------------------------------------

    def accumulate(self, power_watts: float, duration_s: float) -> None:
        """Integrate ``power_watts`` held for ``duration_s`` seconds."""
        if duration_s < 0:
            raise MeasurementError("duration must be non-negative")
        if power_watts < 0:
            raise MeasurementError("power must be non-negative")
        remaining = duration_s
        while remaining > 0:
            room = self.interval_s - self._bucket_time_s
            chunk = min(room, remaining)
            self._bucket_energy_j += power_watts * chunk
            self._bucket_time_s += chunk
            self._time_s += chunk
            remaining -= chunk
            if self._bucket_time_s >= self.interval_s - 1e-12:
                self._close_sample()

    def mark(self, label: str) -> SyncMarker:
        """Record a GPIO sync edge at the current time."""
        marker = SyncMarker(self._time_s, label)
        self._markers.append(marker)
        return marker

    def flush(self) -> None:
        """Close a partial final sample (end of run)."""
        if self._bucket_time_s > 1e-12:
            self._close_sample()

    def _close_sample(self) -> None:
        true_mean = self._bucket_energy_j / self._bucket_time_s
        sensed = self._sense.measure_power(true_mean, self._supply_v)
        measured = self._adc.convert(sensed)
        samples = self._samples
        samples.time_s.append(self._time_s)
        samples.watts.append(measured)
        samples.true_watts.append(true_mean)
        samples.duration_s.append(self._bucket_time_s)
        self._bucket_energy_j = 0.0
        self._bucket_time_s = 0.0

    # -- reading ---------------------------------------------------------------

    @property
    def samples(self) -> PowerSamples:
        """All closed samples so far (a copy of the columns)."""
        return self._samples[:]

    @property
    def sample_count(self) -> int:
        """Number of closed samples (O(1); ``samples`` copies the columns)."""
        return len(self._samples)

    @property
    def last_sample(self) -> PowerSample:
        """The most recently closed sample (raises when none exist)."""
        if not self._samples:
            raise MeasurementError("no samples closed yet")
        return self._samples[-1]

    @property
    def markers(self) -> tuple[SyncMarker, ...]:
        """All GPIO markers so far."""
        return tuple(self._markers)

    @property
    def now_s(self) -> float:
        """Accumulated measurement time."""
        return self._time_s

    def samples_between(self, start_label: str, end_label: str) -> PowerSamples:
        """Samples whose timestamps fall between two GPIO markers
        (``start < time_s <= end``, plus 1e-12 s of slack at the end).

        This is how the paper attributes power to a benchmark run: GPIO
        edges at run start/end bracket the relevant samples.  Sample
        times never decrease, so the bracket is one slice, found by
        bisection.
        """
        start = self._marker_time(start_label)
        end = self._marker_time(end_label)
        if end < start:
            raise MeasurementError(
                f"marker {end_label!r} precedes {start_label!r}"
            )
        times = self._samples.time_s
        return self._samples[
            bisect_right(times, start):bisect_right(times, end + 1e-12)
        ]

    def _marker_time(self, label: str) -> float:
        for marker in self._markers:
            if marker.label == label:
                return marker.time_s
        raise MeasurementError(f"no GPIO marker labelled {label!r}")

    def energy_j(self, samples: Iterable[PowerSample] | None = None) -> float:
        """Measured energy: sum of sample power x duration (paper §IV-B2).

        All samples span the 10 ms interval except a final partial one,
        whose true duration is used so short runs are not inflated.  The
        products are summed in sample order with the builtin ``sum``.
        """
        if samples is None:
            samples = self._samples
        elif not isinstance(samples, PowerSamples):
            samples = PowerSamples.from_samples(samples)
        return sum(map(mul, samples.watts, samples.duration_s))

    def moving_average(self, window: int) -> list[tuple[float, float]]:
        """Moving average of measured power over ``window`` samples.

        The paper evaluates PM's limit adherence on a 100 ms moving
        window of ten 10 ms samples; this helper produces that series as
        (end_time, average_watts) pairs.
        """
        if window <= 0:
            raise MeasurementError("window must be positive")
        return moving_average_watts(self._samples, window)


def moving_average_watts(
    samples: PowerSamples, window: int
) -> list[tuple[float, float]]:
    """(end_time, mean measured watts) over each ``window`` consecutive
    samples, in order; the running sum adds each sample and drops the
    one ``window`` back."""
    out: list[tuple[float, float]] = []
    acc = 0.0
    watts = samples.watts
    for i, (time_s, value) in enumerate(zip(samples.time_s, watts)):
        acc += value
        if i >= window:
            acc -= watts[i - window]
        if i >= window - 1:
            out.append((time_s, acc / window))
    return out
