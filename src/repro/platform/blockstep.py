"""Shared tables for the fused tick kernel.

The platform's per-tick physics lives in one place, the controller's
fused kernel (:func:`repro.core.blockloop.run_fast`), which builds no
:class:`~repro.platform.pipeline.ResolvedRates` (17 event rates) or
:class:`~repro.platform.events.EventRates` object per tick and feeds the
meter inline.  This module holds what that kernel needs from the
platform side:

* :class:`RateTemplate` -- every quantity of ``resolve_rates`` +
  ``ground_truth_power`` that depends only on (phase, p-state, timing,
  power constants) is precomputed once and cached process-wide (the
  cache is exported/installed across sweep workers by
  :mod:`repro.exec.cache`).  A multicore core's contended timing is not
  cached: the kernel keeps the base row and recomputes only its five
  timing-dependent fields (:func:`_timing_fields`) into its locals.
* The soft-minimum exponents, counter masks and the event -> per-segment
  rate selector the kernel's PMU update uses.

**Bit-identical contract.**  Every template field is a cached whole
subexpression of ``resolve_rates`` / ``ground_truth_power`` /
``idle_power`` and the AR(1) jitter update, so combining fields in
their operation order (Python floats are IEEE doubles; ``a + b + c``
associates left, ``**`` binds tighter than unary minus) reproduces the
per-tick physics the machine simulator was built on, bitwise.  Two
frozen fixtures pin the contract: ``tests/platform/golden_ticks.json``
holds that physics tick by tick (end time, true power, instructions,
duty, temperature; ``tests/platform/test_golden_ticks.py``), and
``tests/core/golden_loop.json`` whole-run digests and telemetry bundles
(``tests/core/test_block_equivalence.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.acpi.pstates import PState
from repro.platform.caches import MemoryTiming
from repro.platform.events import Event
from repro.platform.pipeline import _SOFTMIN_P, _WRITEBACK_FRACTION
from repro.platform.power import PowerModelConstants, idle_power
from repro.units import mhz_to_hz, ns_to_cycles
from repro.workloads.base import Phase

#: ``ips_latency ** -p`` in the scalar soft-minimum; ``-p`` is unary
#: minus applied to ``_SOFTMIN_P``, reproduced here once.
_NEG_P = -_SOFTMIN_P
_NEG_INV_P = -1.0 / _SOFTMIN_P

_M40 = (1 << 40) - 1
_M64 = (1 << 64) - 1

#: Which per-segment rate feeds a programmed counter: the three rates
#: the shipped governors sample, which the kernel computes inline.  Any
#: other event takes its rate from ``resolve_rates``.
_SELECTOR: Dict[Event, int] = {
    Event.INST_DECODED: 0,
    Event.INST_RETIRED: 1,
    Event.DCU_MISS_OUTSTANDING: 2,
}


@dataclass(slots=True)
class RateTemplate:
    """Precomputed (phase, p-state, timing, constants) projection row.

    Every field is a cached *whole subexpression* of ``resolve_rates``
    / ``ground_truth_power`` / ``idle_power`` / the AR(1) jitter
    update, so combining them per tick reproduces the frozen per-tick
    floats bitwise.
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


def _timing_fields(
    phase: Phase,
    freq_mhz: float,
    l2_latency_cycles: float,
    dram_latency_ns: float,
    bus_bandwidth: float,
) -> tuple[float, float, float, float, float]:
    """The template fields that depend on the memory timing:
    ``l2_stall_pi``, ``dram_stall_pi``, ``bw_neg_p``, ``bus_bw`` and
    ``dcu_occupancy_pi``, from the timing's three values (the
    ``MemoryTiming`` fields of the same names)."""
    l2_hit_mpi = max(0.0, phase.l1_mpi - phase.l2_mpi)
    dram_cycles = ns_to_cycles(dram_latency_ns, freq_mhz)
    bytes_pi = _bytes_pi(phase)
    if bytes_pi > 0:
        ips_bandwidth = bus_bandwidth / bytes_pi
        bw_neg_p = ips_bandwidth ** _NEG_P
    else:
        bw_neg_p = 0.0
    return (
        l2_hit_mpi * l2_latency_cycles / phase.l2_mlp,
        phase.l2_mpi * dram_cycles / phase.mlp,
        bw_neg_p,
        bus_bandwidth,
        l2_hit_mpi * l2_latency_cycles + phase.l2_mpi * dram_cycles,
    )


def _bytes_pi(phase: Phase) -> float:
    """DRAM traffic per instruction (demand, prefetch, writeback)."""
    line = 64.0
    lines_pi = phase.l2_mpi + phase.prefetch_mpi
    return lines_pi * line * (1.0 + _WRITEBACK_FRACTION)


def _build_template(
    phase: Phase,
    pstate: PState,
    timing: MemoryTiming,
    constants: PowerModelConstants,
) -> RateTemplate:
    freq_mhz = pstate.frequency_mhz
    l2_stall_pi, dram_stall_pi, bw_neg_p, bus_bw, dcu_occupancy_pi = (
        _timing_fields(
            phase, freq_mhz, timing.l2_latency_cycles,
            timing.dram_latency_ns, timing.bus_bandwidth_bytes_per_s,
        )
    )
    f_ghz = pstate.frequency_ghz
    sigma = phase.activity_jitter
    rho = phase.jitter_corr
    return RateTemplate(
        freq_mhz=freq_mhz,
        hz=mhz_to_hz(freq_mhz),
        cpi_core=phase.cpi_core,
        l2_stall_pi=l2_stall_pi,
        dram_stall_pi=dram_stall_pi,
        bytes_pi=_bytes_pi(phase),
        bw_neg_p=bw_neg_p,
        bus_bw=bus_bw,
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
