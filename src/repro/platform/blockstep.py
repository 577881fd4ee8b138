"""Shared tables and gates for the fused tick kernel.

``Machine.step`` resolves a full :class:`~repro.platform.pipeline.
ResolvedRates` object (17 event rates), builds an
:class:`~repro.platform.events.EventRates` dataclass and a
:class:`~repro.platform.machine.TickRecord` per 10 ms tick, then hands
power segments to the meter through a sink indirection.  Profiling
(``scripts/profile_tick.py``) shows >90% of a governed run is this
object churn, not arithmetic.  The controller's one fused kernel
(:func:`repro.core.blockloop.run_fast`) skips it, and this module holds
what that kernel needs from the platform side:

* :class:`RateTemplate` -- every quantity of ``resolve_rates`` +
  ``ground_truth_power`` that depends only on (phase, p-state, timing,
  power constants) is precomputed once and cached process-wide (the
  cache is exported/installed across sweep workers by
  :mod:`repro.exec.cache`).
* :func:`inline_meter` / :func:`block_capable` -- whether a machine's
  meter and PMU setup can be inlined bit-identically.
* The soft-minimum exponents, counter masks and the event -> per-segment
  rate selector the kernel's PMU update uses.

**Bit-identical contract.**  Every template field is a cached whole
subexpression of the scalar path, so combining fields in the scalar
operation order (Python floats are IEEE doubles; ``a + b + c``
associates left, ``**`` binds tighter than unary minus) reproduces the
scalar floats bitwise.  The digest-equivalence suite
(``tests/core/test_block_equivalence.py``) pins this contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from repro.acpi.pstates import PState
from repro.measurement.adc import ADCModel
from repro.measurement.power_meter import PowerMeter
from repro.measurement.sense import SenseResistorChannel
from repro.platform.caches import MemoryTiming
from repro.platform.events import Event
from repro.platform.pipeline import _SOFTMIN_P, _WRITEBACK_FRACTION
from repro.platform.power import PowerModelConstants, idle_power
from repro.units import mhz_to_hz
from repro.workloads.base import Phase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.platform.machine import Machine

#: ``ips_latency ** -p`` in the scalar soft-minimum; ``-p`` is unary
#: minus applied to ``_SOFTMIN_P``, reproduced here once.
_NEG_P = -_SOFTMIN_P
_NEG_INV_P = -1.0 / _SOFTMIN_P

_M40 = (1 << 40) - 1
_M64 = (1 << 64) - 1

#: Which per-segment rate feeds a programmed counter.  Only the events
#: the shipped governors sample are batchable; anything else falls back
#: to the scalar path (which resolves all 17 rates).
_SELECTOR: Dict[Event, int] = {
    Event.INST_DECODED: 0,
    Event.INST_RETIRED: 1,
    Event.DCU_MISS_OUTSTANDING: 2,
}


@dataclass(slots=True)
class RateTemplate:
    """Precomputed (phase, p-state, timing, constants) projection row.

    Every field is a cached *whole subexpression* of ``resolve_rates``
    / ``ground_truth_power`` / ``idle_power`` / ``_advance_jitter``, so
    combining them per tick reproduces the scalar floats bitwise.
    Plain floats only: templates are pickled into the exec-cache spawn
    payload.
    """

    freq_mhz: float
    hz: float
    cpi_core: float
    l2_stall_pi: float
    dram_stall_pi: float
    bytes_pi: float
    bw_neg_p: float  #: ``ips_bandwidth ** -p`` (0.0 when bytes_pi == 0)
    bus_bw: float
    dcu_occupancy_pi: float
    decode_ratio: float
    fp_ratio: float
    l2r_coeff: float  #: ``l1_mpi + 0.5 * prefetch_mpi``
    c_base: float
    c_gate: float
    c_dpc_f: float  #: ``c_dpc_0 + c_dpc_slope * f_ghz``
    c_fp: float
    c_l2: float
    c_bus: float
    v2f: float
    static_w: float  #: isothermal leakage ``k * V * V``
    idle_w: float
    instructions: float  #: phase length
    phase_end: float  #: ``instructions - 1e-9`` (advance threshold)
    sigma: float
    rho: float
    jitter_scale: float  #: ``sigma * sqrt(1 - rho * rho)``
    half_sig2: float  #: ``0.5 * sigma * sigma``


#: Process-wide template cache, value-keyed on the four frozen
#: dataclasses.  Hashing a Phase costs ~1 us, so kernels fetch into
#: per-run index tables and only touch this dict on first use.
_TEMPLATES: Dict[tuple, RateTemplate] = {}


def rate_template(
    phase: Phase,
    pstate: PState,
    timing: MemoryTiming,
    constants: PowerModelConstants,
) -> RateTemplate:
    """The cached projection template for one (phase, p-state) pair."""
    key = (phase, pstate, timing, constants)
    template = _TEMPLATES.get(key)
    if template is None:
        template = _TEMPLATES[key] = _build_template(
            phase, pstate, timing, constants
        )
    return template


def _build_template(
    phase: Phase,
    pstate: PState,
    timing: MemoryTiming,
    constants: PowerModelConstants,
) -> RateTemplate:
    freq_mhz = pstate.frequency_mhz
    l2_hit_mpi = max(0.0, phase.l1_mpi - phase.l2_mpi)
    dram_cycles = timing.dram_latency_cycles(freq_mhz)
    l2_stall_pi = l2_hit_mpi * timing.l2_latency_cycles / phase.l2_mlp
    dram_stall_pi = phase.l2_mpi * dram_cycles / phase.mlp
    hz = mhz_to_hz(freq_mhz)
    line = 64.0
    lines_pi = phase.l2_mpi + phase.prefetch_mpi
    bytes_pi = lines_pi * line * (1.0 + _WRITEBACK_FRACTION)
    if bytes_pi > 0:
        ips_bandwidth = timing.bus_bandwidth_bytes_per_s / bytes_pi
        bw_neg_p = ips_bandwidth ** _NEG_P
    else:
        bw_neg_p = 0.0
    dcu_occupancy_pi = (
        l2_hit_mpi * timing.l2_latency_cycles + phase.l2_mpi * dram_cycles
    )
    f_ghz = pstate.frequency_ghz
    sigma = phase.activity_jitter
    rho = phase.jitter_corr
    return RateTemplate(
        freq_mhz=freq_mhz,
        hz=hz,
        cpi_core=phase.cpi_core,
        l2_stall_pi=l2_stall_pi,
        dram_stall_pi=dram_stall_pi,
        bytes_pi=bytes_pi,
        bw_neg_p=bw_neg_p,
        bus_bw=timing.bus_bandwidth_bytes_per_s,
        dcu_occupancy_pi=dcu_occupancy_pi,
        decode_ratio=phase.decode_ratio,
        fp_ratio=phase.fp_ratio,
        l2r_coeff=phase.l1_mpi + 0.5 * phase.prefetch_mpi,
        c_base=constants.c_base,
        c_gate=constants.c_gate,
        c_dpc_f=constants.c_dpc(f_ghz),
        c_fp=constants.c_fp,
        c_l2=constants.c_l2,
        c_bus=constants.c_bus,
        v2f=pstate.v2f,
        static_w=constants.leakage.power(pstate.voltage),
        idle_w=idle_power(pstate, constants),
        instructions=phase.instructions,
        phase_end=phase.instructions - 1e-9,
        sigma=sigma,
        rho=rho,
        jitter_scale=sigma * math.sqrt(1.0 - rho * rho),
        half_sig2=0.5 * sigma * sigma,
    )


def export_rate_templates() -> dict:
    """Picklable snapshot of the template cache (for spawn workers)."""
    return dict(_TEMPLATES)


def install_rate_templates(payload: dict) -> None:
    """Merge a parent-process template snapshot into this process."""
    _TEMPLATES.update(payload)


def clear_rate_templates() -> None:
    """Drop all cached templates (tests only)."""
    _TEMPLATES.clear()


def inline_meter(machine: "Machine") -> PowerMeter | None:
    """The machine's power meter, iff its sink list can be inlined.

    Inlining is only bit-safe when the machine feeds exactly one
    unmodified :class:`PowerMeter` (with stock sense/ADC front ends)
    through the stock bound ``accumulate``; anything else keeps the
    generic sink indirection.
    """
    sinks = machine._power_sinks
    if len(sinks) != 1:
        return None
    sink = sinks[0]
    meter = getattr(sink, "__self__", None)
    if type(meter) is not PowerMeter:
        return None
    if getattr(sink, "__func__", None) is not PowerMeter.accumulate:
        return None
    if type(meter._sense) is not SenseResistorChannel:
        return None
    if type(meter._adc) is not ADCModel:
        return None
    return meter


def block_capable(machine: "Machine") -> bool:
    """Whether ``machine`` can run the fused kernel (vs scalar fallback)."""
    from repro.platform.machine import Machine

    if type(machine) is not Machine:
        return False
    if machine.thermal is not None:
        return False
    for event in machine.pmu._events:
        if event is not None and event not in _SELECTOR:
            return False
    return True
