"""PowerSamples: four columns that read like a tuple of PowerSample."""

from __future__ import annotations

import math
import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpoint.digest import _samples_sha256, _samples_sha256_scalar
from repro.errors import MeasurementError
from repro.measurement.power_meter import (
    PowerMeter,
    PowerSample,
    PowerSamples,
    SyncMarker,
)

_SPECIAL = (math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf)

values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(_SPECIAL),
)


@st.composite
def series(draw, max_size=12):
    """Four equal-length columns (possibly empty)."""
    n = draw(st.integers(0, max_size))
    column = st.lists(values, min_size=n, max_size=n)
    return tuple(draw(column) for _ in range(4))


def _rows(columns) -> tuple:
    """The tuple of PowerSample the columns stand for, each value a
    fresh float (as a row read from a column is)."""
    return tuple(
        PowerSample(*(float(value) for value in row)) for row in zip(*columns)
    )


def _bits(sample: PowerSample) -> bytes:
    return struct.pack(
        "<4d", sample.time_s, sample.watts, sample.true_watts,
        sample.duration_s,
    )


slices = st.builds(
    slice,
    st.none() | st.integers(-15, 15),
    st.none() | st.integers(-15, 15),
    st.none() | st.integers(-4, 4).filter(bool),
)


@settings(max_examples=200, deadline=None)
@given(columns=series(), cut=slices, data=st.data())
def test_reads_like_a_tuple_of_samples(columns, cut, data):
    samples = PowerSamples(*columns)
    rows = _rows(columns)
    assert len(samples) == len(rows)
    assert bool(samples) == bool(rows)
    assert list(map(_bits, samples)) == list(map(_bits, rows))
    for index in range(-len(rows), len(rows)):
        assert type(samples[index]) is PowerSample
        assert _bits(samples[index]) == _bits(rows[index])
    for index in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            samples[index]
    part = samples[cut]
    assert type(part) is PowerSamples
    assert list(map(_bits, part)) == list(map(_bits, rows[cut]))

    # Equality is row by row, as between tuples of rows read back: a NaN
    # equals no other NaN, 0.0 equals -0.0, a series equals itself.
    other = PowerSamples(*data.draw(st.one_of(
        st.just(columns), series(max_size=len(rows) + 1)
    )))
    assert (samples == other) == (tuple(samples) == tuple(other))
    assert (samples != other) == (tuple(samples) != tuple(other))
    assert samples == samples
    assert samples != rows  # a PowerSamples equals only a PowerSamples


@settings(max_examples=200, deadline=None)
@given(columns=series())
def test_pickle_round_trip_is_exact(columns):
    samples = PowerSamples(*columns)
    loaded = pickle.loads(pickle.dumps(samples, pickle.HIGHEST_PROTOCOL))
    assert type(loaded) is PowerSamples
    for name in ("time_s", "watts", "true_watts", "duration_s"):
        assert getattr(loaded, name).tobytes() == getattr(
            samples, name
        ).tobytes()


@settings(max_examples=200, deadline=None)
@given(columns=series())
def test_columns_hash_like_the_per_value_reference(columns):
    samples = PowerSamples(*columns)
    rows = _rows(columns)
    assert _samples_sha256(samples) == _samples_sha256_scalar(rows)
    assert _samples_sha256(rows) == _samples_sha256_scalar(rows)


@settings(max_examples=200, deadline=None)
@given(columns=series())
def test_energy_is_bitwise_the_per_object_sum(columns):
    samples = PowerSamples(*columns)
    rows = _rows(columns)
    expected = sum(s.watts * s.duration_s for s in rows)
    meter = PowerMeter()
    for energy in (meter.energy_j(samples), meter.energy_j(rows)):
        assert type(energy) is type(expected)
        if math.isnan(expected):
            # Which operand's NaN a NaN x NaN product keeps is not fixed:
            # CPython's own `*` flips it once the bytecode specializes.
            assert math.isnan(energy)
        else:
            assert struct.pack("<d", energy) == struct.pack("<d", expected)


@settings(max_examples=200, deadline=None)
@given(
    times=st.lists(
        st.integers(0, 20).map(lambda k: k * 0.01), max_size=15
    ).map(sorted),
    start=st.integers(-1, 21).map(lambda k: k * 0.01),
    span=st.integers(0, 21).map(lambda k: k * 0.01),
    nudge=st.sampled_from((0.0, 5e-13, 2e-12)),
)
def test_samples_between_bisects_the_bracket(times, start, span, nudge):
    # Sample times never decrease; the bracket is start < t <= end +
    # 1e-12, also for times sitting on, or within the slack of, a marker.
    meter = PowerMeter()
    end = start + span
    times = [t + nudge if i % 2 else t for i, t in enumerate(times)]
    times.sort()
    n = len(times)
    meter._samples = PowerSamples(times, [1.0] * n, [1.0] * n, [0.01] * n)
    meter._markers = [SyncMarker(start, "a"), SyncMarker(end, "b")]
    bracket = meter.samples_between("a", "b")
    assert type(bracket) is PowerSamples
    assert list(bracket.time_s) == [
        t for t in times if start < t <= end + 1e-12
    ]


def test_columns_must_have_one_length():
    with pytest.raises(MeasurementError, match="length"):
        PowerSamples([0.01], [1.0], [1.0], [])


def test_meter_samples_are_a_copy():
    meter = PowerMeter()
    meter.accumulate(10.0, 0.02)
    held = meter.samples
    meter.accumulate(10.0, 0.02)
    assert len(held) == 2
    assert len(meter.samples) == meter.sample_count == 4
    assert meter.last_sample == meter.samples[-1]
