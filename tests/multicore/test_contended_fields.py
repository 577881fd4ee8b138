"""A contended lane's template fields, over generated bus demands.

The kernel keeps every lane on the cached base template row and, for a
lane under bus pressure, recomputes the five timing-dependent fields
from :meth:`ContentionModel.effective_scalars`.  These tests draw
demand vectors of 2-4 lanes (oversubscribed buses, zero-demand idle or
finished lanes, demands at the pressure threshold) and check the
result, bit for bit, against what the kernel computed before: a
template built at a contended :class:`MemoryTiming` made by
``dataclasses.replace`` (:func:`_reference_timings` is that code).
"""

from __future__ import annotations

import re
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.blockloop import _Package
from repro.errors import ReproError
from repro.multicore.contention import ContentionModel
from repro.multicore.machine import MulticoreConfig, MulticoreMachine
from repro.platform.blockstep import _build_template
from repro.platform.caches import PENTIUM_M_755_TIMING
from repro.platform.machine import MachineConfig
from repro.units import mhz_to_hz
from repro.workloads import default_registry

BASE = PENTIUM_M_755_TIMING
CONFIG = MachineConfig()
CONSTANTS = CONFIG.power
STATES = tuple(CONFIG.table)

#: Every phase of every SPEC workload.
PHASES = tuple(
    phase
    for workload in default_registry().spec_suite()
    for phase in workload.phases
)

FIELDS = (
    "l2_stall_pi", "dram_stall_pi", "bw_neg_p", "bus_bw",
    "dcu_occupancy_pi",
)


def _package() -> _Package:
    """The kernel's bookkeeping for a loaded four-core package, indexing
    every phase of :data:`PHASES`."""
    machine = MulticoreMachine(MulticoreConfig(n_cores=4))
    machine.load(default_registry().get("swim"))
    rows = [[None] * len(PHASES) for _ in STATES]
    return _Package(machine, rows, STATES, PHASES, hooked=False)


PACKAGE = _package()


def _reference_timings(model, base, demands):
    """``ContentionModel.effective_timings`` as it built one
    ``MemoryTiming`` per contended core."""
    ceiling = model.ceiling(base)
    total = sum(demands)
    service = min(1.0, ceiling / total) if total > 0 else 1.0
    timings = []
    for own in demands:
        external = (total - own) * service
        if external <= 1.0:
            timings.append(base)
            continue
        rho = min(external / ceiling, model.max_utilization)
        multiplier = 1.0 + model.latency_slope * rho / (1.0 - rho)
        share = ceiling - external
        if own <= 1.0 and service < 1.0:
            share = ceiling / len(demands)
        timings.append(replace(
            base,
            dram_latency_ns=base.dram_latency_ns * multiplier,
            bus_bandwidth_bytes_per_s=share,
        ))
    return tuple(timings)


def _bits(values):
    return [float(value).hex() for value in values]


#: One lane's uncontended demand in bytes/s: finished or idle (0.0),
#: at or just past the 1 B/s pressure threshold, a share of the base
#: ceiling (exact fractions included, so a bus can be saturated to the
#: byte), and oversubscribing.
DEMAND = st.one_of(
    st.just(0.0),
    st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    st.sampled_from([0.25, 0.5, 1.0]).map(
        lambda f: f * BASE.bus_bandwidth_bytes_per_s
    ),
    st.floats(min_value=1e3, max_value=3e9),
    st.floats(min_value=3e9, max_value=1e12),
)


@settings(max_examples=60, deadline=None)
@given(
    demands=st.lists(DEMAND, min_size=2, max_size=4),
    ceiling=st.sampled_from([None, 1.0e9, BASE.bus_bandwidth_bytes_per_s]),
    # A negative slope (which the model's own validation rejects)
    # drives the latency non-positive.
    slope=st.sampled_from([0.0, 0.25, 1.0, -30.0]),
    utilization=st.sampled_from([0.5, 0.95]),
)
def test_lane_fields_equal_the_contended_template(
    demands, ceiling, slope, utilization
):
    model = ContentionModel(
        bandwidth_ceiling_bytes_per_s=ceiling, max_utilization=utilization
    )
    object.__setattr__(model, "latency_slope", slope)
    try:
        expected = _reference_timings(model, BASE, demands)
    except ReproError as error:
        # A non-positive share or latency: the same error as before.
        message = re.escape(str(error))
        with pytest.raises(type(error), match=message):
            model.effective_scalars(BASE, demands)
        with pytest.raises(type(error), match=message):
            model.effective_timings(BASE, demands)
        return
    scalars = model.effective_scalars(BASE, demands)
    timings = model.effective_timings(BASE, demands)
    assert len(scalars) == len(timings) == len(demands)
    for lane, reference in enumerate(expected):
        if reference is BASE:
            # No pressure: the lane keeps the base template untouched.
            assert scalars[lane] is None
            assert timings[lane] is BASE
            continue
        assert timings[lane] == reference
        assert PACKAGE.timing(scalars[lane]) == reference
        for index, phase in enumerate(PHASES):
            for pstate in STATES:
                template = _build_template(
                    phase, pstate, reference, CONSTANTS
                )
                want = [getattr(template, name) for name in FIELDS]
                got = PACKAGE.fields(
                    scalars[lane], index, mhz_to_hz(pstate.frequency_mhz)
                )
                assert _bits(got) == _bits(want), (phase.name, pstate)


def test_saturating_a_bus_to_the_byte_leaves_an_idle_lane_no_share():
    """One lane alone saturates the ceiling: the idle lane's leftover
    share is zero, which a ``MemoryTiming`` rejects."""
    ceiling = BASE.bus_bandwidth_bytes_per_s
    model = ContentionModel()
    with pytest.raises(ReproError, match="bus bandwidth must be positive"):
        _reference_timings(model, BASE, [0.0, ceiling])
    with pytest.raises(ReproError, match="bus bandwidth must be positive"):
        model.effective_scalars(BASE, [0.0, ceiling])
