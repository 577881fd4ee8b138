"""Enhanced SpeedStep driver: PERF_CTL-style p-state actuation.

The paper's prototype changes frequency/voltage "by configuring the
machine specific registers that control the internal PLL of the processor
and the external voltage identification signals" (§III-B).  This driver
reproduces that interface: policies write an encoded (frequency-ratio,
VID) word to ``IA32_PERF_CTL``; the write hook drives the
:class:`~repro.platform.dvfs.DvfsController`, and ``IA32_PERF_STATUS``
reads back the currently active p-state.

Encoding (matches the real Pentium M layout in spirit):
bits 15..8 = bus-ratio (frequency / 100 MHz), bits 7..0 = VID code
(voltage in 16 mV steps above 0.7 V).
"""

from __future__ import annotations

from typing import Sequence

from repro.acpi.pstates import PState, PStateTable
from repro.drivers.msr import IA32_PERF_CTL, IA32_PERF_STATUS, MSRFile
from repro.errors import DriverError, TransitionError
from repro.platform.dvfs import DvfsController, TransitionResult

_VID_STEP_V = 0.016
_VID_BASE_V = 0.700


def encode_pstate(pstate: PState) -> int:
    """Encode a p-state into a PERF_CTL word."""
    ratio = int(round(pstate.frequency_mhz / 100.0))
    vid = int(round((pstate.voltage - _VID_BASE_V) / _VID_STEP_V))
    if not 0 <= vid <= 0xFF:
        raise TransitionError(f"voltage {pstate.voltage} not VID-encodable")
    if not 0 <= ratio <= 0xFF:
        raise TransitionError(f"frequency {pstate.frequency_mhz} not encodable")
    return (ratio << 8) | vid


def decode_pstate(word: int, table: PStateTable) -> PState:
    """Decode a PERF_CTL word to the nearest table p-state.

    Real hardware clamps illegal requests to supported operating points;
    we resolve to the nearest table frequency and then verify the VID is
    consistent, raising on grossly inconsistent encodings.
    """
    ratio = (word >> 8) & 0xFF
    frequency_mhz = ratio * 100.0
    state = table.nearest(frequency_mhz)
    if abs(state.frequency_mhz - frequency_mhz) > 50.0:
        raise TransitionError(
            f"PERF_CTL requests {frequency_mhz} MHz, not a supported ratio"
        )
    return state


class SpeedStepDriver:
    """User-level-facing DVFS driver mirroring the paper's control path."""

    def __init__(self, msr: MSRFile, dvfs: DvfsController):
        self._msr = msr
        self._dvfs = dvfs
        self._last_transition: TransitionResult | None = None
        msr.map_register(
            IA32_PERF_STATUS,
            initial=encode_pstate(dvfs.current),
            writable=False,
            read_hook=self._read_perf_status,
        )
        msr.map_register(
            IA32_PERF_CTL,
            initial=encode_pstate(dvfs.current),
            write_hook=self._on_perf_ctl_write,
        )

    @property
    def table(self) -> PStateTable:
        """The processor's p-state table."""
        return self._dvfs.table

    @property
    def current_pstate(self) -> PState:
        """Active p-state, read back through IA32_PERF_STATUS."""
        return decode_pstate(self._msr.rdmsr(IA32_PERF_STATUS), self._dvfs.table)

    @property
    def last_transition(self) -> TransitionResult | None:
        """The most recent transition result (None before any request)."""
        return self._last_transition

    def set_pstate(self, pstate: PState) -> TransitionResult:
        """Request a p-state through the PERF_CTL register path."""
        self._msr.wrmsr(IA32_PERF_CTL, encode_pstate(pstate))
        assert self._last_transition is not None
        return self._last_transition

    def set_frequency(self, frequency_mhz: float) -> TransitionResult:
        """Request the table p-state at exactly ``frequency_mhz``."""
        return self.set_pstate(self._dvfs.table.by_frequency(frequency_mhz))

    def _read_perf_status(self) -> int:
        return encode_pstate(self._dvfs.current)

    def _on_perf_ctl_write(self, word: int) -> None:
        target = decode_pstate(word, self._dvfs.table)
        self._last_transition = self._dvfs.request(target)


class DomainSpeedStepDriver:
    """P-state actuation of a package whose cores share one p-state domain.

    On package-level DVFS (the Pentium M-era reality) all cores share one
    PLL/VRM: one request retunes every core.  The driver fans each
    request out to the member cores' single-core
    :class:`SpeedStepDriver` instances, lead core first.
    """

    def __init__(self, drivers: Sequence[SpeedStepDriver]):
        if not drivers:
            raise DriverError("a p-state domain needs at least one core")
        self._drivers = tuple(drivers)

    @property
    def table(self) -> PStateTable:
        """The shared p-state table."""
        return self._drivers[0].table

    @property
    def current_pstate(self) -> PState:
        """Active p-state (the lead core's PERF_STATUS)."""
        return self._drivers[0].current_pstate

    def set_pstate(self, pstate: PState) -> TransitionResult:
        """Actuate every core; returns the lead core's transition."""
        results = [driver.set_pstate(pstate) for driver in self._drivers]
        return results[0]

    def set_frequency(self, frequency_mhz: float) -> TransitionResult:
        """Actuate the package to the table p-state at ``frequency_mhz``."""
        return self.set_pstate(self.table.by_frequency(frequency_mhz))
