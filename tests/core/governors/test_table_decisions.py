"""Hook-mode decisions read the shared projection tables, bit for bit.

:meth:`EnergyOptimalSearch.decide` prices every candidate from the
Eq. 2/4 (:func:`~repro.exec.cache.pm_projection_table`) and Eq. 3
(:func:`~repro.exec.cache.ps_projection_table`) tables, and a stock
:meth:`PerformanceMaximizer._desired` picks through
:meth:`PowerProjectionTable.desired_index`.  Over generated samples,
both must pick what the per-candidate scans they replaced pick -- ties,
zeros, infinities and NaN included -- and raise where those raise.
Governors with their own estimate (adaptive, throttling, component
PM) never touch the tables.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.acpi.pstates import pentium_m_755_table
from repro.core.governors.adaptive_pm import AdaptivePerformanceMaximizer
from repro.core.governors.component_pm import ComponentPerformanceMaximizer
from repro.core.governors.energy_optimal import EnergyOptimalSearch
from repro.core.governors.performance_maximizer import PerformanceMaximizer
from repro.core.governors.throttling_pm import ThrottlingMaximizer
from repro.core.models.component_power import (
    ComponentCoefficients,
    ComponentPowerModel,
)
from repro.core.models.performance import PerformanceModel
from repro.core.models.power import LinearPowerModel, PStateCoefficients
from repro.core.models.projection import PowerProjectionTable
from repro.core.sampling import CounterSample
from repro.drivers.msr import MSRFile
from repro.exec.cache import trained_power_model
from repro.platform.events import Event
from repro.platform.throttling import ThrottleController

TABLE = pentium_m_755_table()
STATES = tuple(TABLE)

#: Power proportional to frequency with no activity term: at a
#: power-of-two IPC every core-bound candidate's energy per instruction
#: is exactly equal, so the argmin is a many-way tie.
TIE_MODEL = LinearPowerModel({
    state.frequency_mhz: PStateCoefficients(0.0, state.frequency_mhz / 1024)
    for state in STATES
})

POWER_MODELS = {
    "paper": LinearPowerModel.paper_model(),
    "trained": trained_power_model(0),
    "tie": TIE_MODEL,
}

PERFORMANCE_MODELS = {
    "primary": PerformanceModel.paper_primary(),
    "alternative": PerformanceModel.paper_alternative(),
    "core-only": PerformanceModel(memory_exponent=0.0),
}

#: A per-cycle rate: zero, exact powers of two (ties), ordinary values,
#: the extremes (subnormal, huge, infinite) and NaN.
RATE = st.one_of(
    st.just(0.0),
    st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    st.floats(min_value=1e-6, max_value=4.0),
    st.sampled_from([5e-324, 1e-300, 1e300, math.inf, math.nan]),
)


def _sample(rates):
    return CounterSample(interval_s=0.01, cycles=2e7, rates=rates)


def _pick(outcome):
    """A decision's state, or the type and text of what it raised."""
    try:
        return outcome()
    except Exception as error:  # noqa: BLE001 - compared, not hidden
        return (type(error), str(error))


def _scan_energy_optimal(governor, sample, current):
    """``EnergyOptimalSearch.decide`` as a min() over the objective."""
    if Event.INST_DECODED in sample.rates:
        governor._dpc = sample.rates[Event.INST_DECODED]
    if Event.DCU_MISS_OUTSTANDING in sample.rates:
        governor._dcu = sample.rates[Event.DCU_MISS_OUTSTANDING]
    ipc = sample.rates.get(Event.INST_RETIRED, 0.0)
    if ipc <= 0 or governor._dpc <= 0:
        return current
    return min(
        governor.table,
        key=lambda candidate: governor.objective(ipc, current, candidate),
    )


@settings(max_examples=300, deadline=None)
@given(
    power=st.sampled_from(sorted(POWER_MODELS)),
    performance=st.sampled_from(sorted(PERFORMANCE_MODELS)),
    ipc=RATE,
    dpc=RATE,
    dcu=st.one_of(RATE, st.just(-0.5)),
    current=st.sampled_from(STATES),
    # A multiplexed sample carries one group; the other keeps its last
    # value from the previous decision.
    group=st.sampled_from(["both", "decode", "dcu"]),
    previous=st.tuples(RATE, RATE),
)
def test_energy_optimal_decide_equals_the_objective_scan(
    power, performance, ipc, dpc, dcu, current, group, previous
):
    governors = [
        EnergyOptimalSearch(
            TABLE, POWER_MODELS[power], PERFORMANCE_MODELS[performance]
        )
        for _ in range(2)
    ]
    rates = {Event.INST_RETIRED: ipc}
    if group != "dcu":
        rates[Event.INST_DECODED] = dpc
    if group != "decode":
        rates[Event.DCU_MISS_OUTSTANDING] = dcu
    for governor in governors:
        governor._dpc, governor._dcu = previous
    table, scan = governors
    got = _pick(lambda: table.decide(_sample(rates), current))
    want = _pick(lambda: _scan_energy_optimal(scan, _sample(rates), current))
    assert got == want
    assert repr((table._dpc, table._dcu)) == repr((scan._dpc, scan._dcu))


def test_energy_optimal_ties_keep_the_first_candidate():
    governor = EnergyOptimalSearch(TABLE, TIE_MODEL, PerformanceModel())
    rates = {
        Event.INST_RETIRED: 1.0,
        Event.INST_DECODED: 1.0,
        Event.DCU_MISS_OUTSTANDING: 0.0,
    }
    objectives = {
        governor.objective(1.0, STATES[3], state) for state in STATES
    }
    assert len(objectives) == 1  # an exact eight-way tie
    assert governor.decide(_sample(rates), STATES[3]) is STATES[0]


def test_energy_optimal_subclass_objective_takes_the_scan():
    class Slowest(EnergyOptimalSearch):
        def objective(self, sample_ipc, current, candidate):
            return candidate.frequency_mhz

    governor = Slowest(TABLE, LinearPowerModel.paper_model(),
                       PerformanceModel())
    rates = {
        Event.INST_RETIRED: 1.0,
        Event.INST_DECODED: 1.0,
        Event.DCU_MISS_OUTSTANDING: 0.0,
    }
    assert governor.decide(_sample(rates), STATES[0]) is TABLE.slowest


def _scan_desired(governor, sample, current):
    """``PerformanceMaximizer._desired`` as the per-candidate scan."""
    budget = governor._limit - governor._guardband
    for candidate in governor.table:
        if governor.estimate_power(sample, current, candidate) <= budget:
            return candidate
    return governor.table.slowest


@settings(max_examples=300, deadline=None)
@given(
    power=st.sampled_from(sorted(POWER_MODELS)),
    dpc=st.one_of(RATE, st.just(-0.5), st.just(-0.0)),
    current=st.sampled_from(STATES),
    limit=st.one_of(
        st.floats(min_value=0.5, max_value=40.0),
        # Limits at the paper model's estimates for DPC 1 and 0 (plus
        # the default guardband): candidates on the budget's edge.
        st.sampled_from([12.11 + 2.93 + 0.5, 2.58 + 0.5, 8.44 + 0.5]),
    ),
    guardband=st.sampled_from([0.0, 0.5, 2.0]),
)
def test_performance_maximizer_desired_equals_the_scan(
    power, dpc, current, limit, guardband
):
    governor = PerformanceMaximizer(
        TABLE, POWER_MODELS[power], limit, guardband_w=guardband
    )
    sample = _sample({Event.INST_DECODED: dpc})
    got = _pick(lambda: governor._desired(sample, current))
    want = _pick(lambda: _scan_desired(governor, sample, current))
    assert got == want


def test_performance_maximizer_desired_reads_the_table(monkeypatch):
    calls = []
    desired_index = PowerProjectionTable.desired_index

    def spy(self, *args):
        calls.append(args)
        return desired_index(self, *args)

    monkeypatch.setattr(PowerProjectionTable, "desired_index", spy)
    # Budget 1.0 W: the fastest state at or under 1024 MHz fits.
    governor = PerformanceMaximizer(TABLE, TIE_MODEL, 1.5)
    sample = _sample({Event.INST_DECODED: 1.0})
    assert governor._desired(sample, STATES[0]).frequency_mhz == 1000.0
    assert calls == [(1.0, 0, 1.0)]


@pytest.fixture
def no_tables(monkeypatch):
    """Fail any read of a shared projection table."""

    def refuse(*args, **kwargs):
        raise AssertionError("projection table read")

    monkeypatch.setattr(PowerProjectionTable, "desired_index", refuse)
    monkeypatch.setattr(
        "repro.exec.cache.pm_projection_table", refuse
    )
    monkeypatch.setattr(
        "repro.exec.cache.ps_projection_table", refuse
    )


@settings(max_examples=50, deadline=None)
@given(dpc=st.floats(min_value=0.0, max_value=4.0),
       measured=st.floats(min_value=0.0, max_value=30.0))
def test_adaptive_pm_keeps_its_offset_scan(dpc, measured):
    governor = AdaptivePerformanceMaximizer(
        TABLE, LinearPowerModel.paper_model(), 14.5
    )
    sample = _sample({Event.INST_DECODED: dpc})
    governor.decide(sample, STATES[2])
    governor.observe_power(measured)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            PowerProjectionTable, "desired_index",
            lambda *a: pytest.fail("adaptive PM read the table"),
        )
        got = governor._desired(sample, STATES[2])
    assert got is _scan_desired(governor, sample, STATES[2])


def test_throttling_and_component_pm_never_read_the_tables(no_tables):
    throttling = ThrottlingMaximizer(
        TABLE, LinearPowerModel.paper_model(),
        ThrottleController(MSRFile()), 10.0
    )
    sample = _sample({Event.INST_DECODED: 1.5})
    assert throttling.decide(sample, STATES[0]) is STATES[0]

    coefficients = {
        state.frequency_mhz: ComponentCoefficients(
            weights={Event.INST_DECODED: 2.0},
            intercept=state.frequency_mhz / 200.0,
        )
        for state in STATES
    }
    component = ComponentPerformanceMaximizer(
        TABLE, ComponentPowerModel(coefficients), 7.5
    )
    assert component.decide(sample, STATES[0]) is not None
