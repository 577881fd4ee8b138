"""Exact digests of run outcomes for cross-process equivalence checks.

The crash-safety contract is *bit-identical resume*: a run killed and
resumed must finish with exactly the :class:`~repro.core.controller.
RunResult` of an uninterrupted run.  Verifying that across process
boundaries (the chaos harness kills real child processes) needs a
serialized form with no float rounding: scalars are kept as Python
floats (``json`` round-trips them exactly via ``repr``), and the bulky
per-sample / per-tick series are collapsed to SHA-256 hashes over their
IEEE-754 little-endian byte representation -- one flipped bit anywhere
changes the digest.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from array import array
from typing import Any, Mapping

from repro.measurement.power_meter import PowerSamples

_DOUBLE = struct.Struct("<d")


def _pack_float(hasher, value: float | None) -> None:
    if value is None:
        hasher.update(b"\x00none\x00")
    else:
        hasher.update(_DOUBLE.pack(value))


def _samples_sha256(samples) -> str:
    """Hash of the measured power-sample series, bit-exact.

    Hashes one ``array('d')`` interleaving the four columns of a
    :class:`~repro.measurement.power_meter.PowerSamples` (each sample's
    time_s, watts, true_watts, duration_s): the same little-endian
    bytes, in the same order, as packing each value on its own.  Other
    sequences of samples are read into columns first; a value a column
    refuses (``None``, which the per-value path encodes with a marker)
    sends the whole series down that path.
    """
    if not isinstance(samples, PowerSamples):
        try:
            samples = PowerSamples.from_samples(samples)
        except TypeError:
            return _samples_sha256_scalar(samples)
    values = array("d", bytes(32 * len(samples)))
    values[0::4] = samples.time_s
    values[1::4] = samples.watts
    values[2::4] = samples.true_watts
    values[3::4] = samples.duration_s
    if sys.byteorder != "little":
        values.byteswap()
    return hashlib.sha256(values).hexdigest()


def _samples_sha256_scalar(samples) -> str:
    """Per-value reference form of :func:`_samples_sha256`."""
    hasher = hashlib.sha256()
    for s in samples:
        _pack_float(hasher, s.time_s)
        _pack_float(hasher, s.watts)
        _pack_float(hasher, s.true_watts)
        _pack_float(hasher, s.duration_s)
    return hasher.hexdigest()


def _trace_sha256(trace) -> str:
    """Hash of the per-tick trace, bit-exact (rates keyed by name)."""
    hasher = hashlib.sha256()
    for row in trace:
        _pack_float(hasher, row.time_s)
        _pack_float(hasher, row.frequency_mhz)
        _pack_float(hasher, row.measured_power_w)
        _pack_float(hasher, row.true_power_w)
        _pack_float(hasher, row.instructions)
        _pack_float(hasher, row.duty)
        _pack_float(hasher, row.temperature_c)
        for event in sorted(row.rates, key=lambda e: getattr(e, "name", str(e))):
            hasher.update(getattr(event, "name", str(event)).encode())
            _pack_float(hasher, row.rates[event])
    return hasher.hexdigest()


def run_result_digest(result) -> Mapping[str, Any]:
    """JSON-safe, float-exact digest of a :class:`RunResult`.

    Two digests compare equal iff the results are bit-identical in
    every field the equivalence guarantee covers.
    """
    return {
        "workload": result.workload,
        "governor": result.governor,
        "duration_s": result.duration_s,
        "instructions": result.instructions,
        "measured_energy_j": result.measured_energy_j,
        "true_energy_j": result.true_energy_j,
        "transitions": result.transitions,
        "degraded": result.degraded,
        "recoveries": dict(result.recoveries),
        "residency_s": {
            f"{freq:.6f}": seconds
            for freq, seconds in sorted(result.residency_s.items())
        },
        "n_samples": len(result.samples),
        "n_trace": len(result.trace),
        "samples_sha256": _samples_sha256(result.samples),
        "trace_sha256": _trace_sha256(result.trace),
    }
