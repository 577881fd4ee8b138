"""run_result_digest: the one-buffer samples hash equals the per-value one."""

from __future__ import annotations

import hashlib
import math
import struct

from hypothesis import given, settings, strategies as st

from repro.checkpoint.digest import _samples_sha256, _samples_sha256_scalar
from repro.measurement.power_meter import PowerSample

_SPECIAL = (math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf, None)

values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(_SPECIAL),
    st.integers(min_value=-(2**53), max_value=2**53),
)
samples = st.lists(
    st.builds(PowerSample, values, values, values, values), max_size=12
)


def _reference(series) -> str:
    """The hash written out value by value, independent of the module."""
    hasher = hashlib.sha256()
    for sample in series:
        for value in (
            sample.time_s, sample.watts, sample.true_watts,
            sample.duration_s,
        ):
            if value is None:
                hasher.update(b"\x00none\x00")
            else:
                hasher.update(struct.pack("<d", value))
    return hasher.hexdigest()


@settings(max_examples=300, deadline=None)
@given(series=samples)
def test_fast_samples_hash_equals_scalar_reference(series):
    expected = _reference(series)
    assert _samples_sha256(series) == expected
    assert _samples_sha256_scalar(series) == expected


def test_empty_series_hashes_like_empty_input():
    assert _samples_sha256([]) == hashlib.sha256().hexdigest()


def test_nan_payloads_are_hashed_bit_exactly():
    quiet = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
    series = [PowerSample(quiet, 1.0, 2.0, 0.01)]
    assert _samples_sha256(series) == _reference(series)
    assert _samples_sha256(series) != _samples_sha256(
        [PowerSample(math.nan, 1.0, 2.0, 0.01)]
    )
