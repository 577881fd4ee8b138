"""The cell is the one carrier of a run's options.

A fault plan, an adaptation config and a resilience config reach a run
only on its :class:`RunCell`.  Setting them on the cell, stamping them
with :meth:`RunPlan.sweep` or stamping them with ``open_session(faults=,
adaptation=)`` must give the same cells, the same store keys and the
same results, serially and on the pool, over generated cells.  Every
cell a plan can hold also has a canonical spec: its JSON round trip is
the same cell under the same store key.
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.adaptation.manager import AdaptationConfig
from repro.campaign.store import ResultStore, cell_digest
from repro.checkpoint.digest import run_result_digest
from repro.core.models.performance import PerformanceModel
from repro.core.models.power import LinearPowerModel, PStateCoefficients
from repro.core.resilience import ResilienceConfig
from repro.exec.plan import ExperimentConfig, GovernorSpec, RunCell, RunPlan
from repro.exec.session import open_session
from repro.faults.plan import (
    FaultPlan,
    MeterFaults,
    SampleFaults,
    ThermalFaults,
    TransitionFaults,
)
from repro.traces.corpus import corpus_names
from repro.workloads.registry import default_registry

CONFIG = ExperimentConfig(scale=0.02, seed=3)

WORKLOADS = ("ammp", "gzip", "mcf", "swim")

GOVERNORS = (
    GovernorSpec.pm(14.5, power_model="paper"),
    GovernorSpec.ps(0.8),
    GovernorSpec.fixed(1600.0),
    GovernorSpec.dbs(),
    GovernorSpec.energy_optimal(power_model="paper"),
)

FAULT_PLANS = (
    None,
    FaultPlan.from_dict({
        "seed": 0, "sample": {"drop_prob": 0.08},
        "transition": {"fail_prob": 0.4},
    }),
    FaultPlan.from_dict({
        "seed": 5, "sample": {"garble_prob": 0.1},
        "meter": {"spike_prob": 0.05},
    }),
)

#: Per cell: workload, governor, resilience and threads.
CELL_AXES = st.tuples(
    st.sampled_from(WORKLOADS),
    st.sampled_from(GOVERNORS),
    st.sampled_from((None, ResilienceConfig())),
    st.integers(min_value=1, max_value=2),
)


def _digests(results):
    return [run_result_digest(result) for result in results]


def _run(cells, store=None, **stamp):
    """Results of ``cells`` serially (under ``store``) and on two
    workers, each under one session stamping ``stamp``."""
    plan = RunPlan(CONFIG, tuple(cells))
    with open_session(store=store, **stamp) as session:
        serial = session.run_plan(plan)
    with open_session(workers=2, **stamp) as session:
        pooled = session.run_plan(plan)
    return _digests(serial), _digests(pooled)


@settings(max_examples=8, deadline=None)
@given(
    axes=st.lists(CELL_AXES, min_size=1, max_size=3),
    fault_plan=st.sampled_from(FAULT_PLANS),
    adapt=st.booleans(),
)
def test_cell_sweep_and_session_carry_options_alike(
    tmp_path_factory, axes, fault_plan, adapt
):
    adaptation = AdaptationConfig() if adapt else None
    carried = [
        RunCell(w, g, threads=t, group=w, fault_plan=fault_plan,
                adaptation=adaptation, resilience=r)
        for w, g, r, t in axes
    ]
    swept = [
        RunPlan.sweep([w], [g], CONFIG, threads=(t,), fault_plan=fault_plan,
                      adaptation=adaptation, resilience=r).cells[0]
        for w, g, r, t in axes
    ]
    bare = [RunCell(w, g, threads=t, group=w, resilience=r)
            for w, g, r, t in axes]
    assert swept == carried
    plan = RunPlan(CONFIG, tuple(carried))
    keys = [cell_digest(cell, plan) for cell in carried]
    assert [cell_digest(cell, plan) for cell in swept] == keys

    serial, pooled = _run(carried)
    assert pooled == serial
    store = ResultStore(tmp_path_factory.mktemp("store"))
    with store:
        stamped = _run(
            bare, store=store, faults=fault_plan, adaptation=adaptation
        )
    assert stamped == (serial, serial)
    # The session keyed the stamped cells as the carried ones.
    assert store.object_digests() == sorted(set(keys))


def test_cell_carried_key_is_unchanged():
    """A cell that carried its options keeps the store key it had
    before the cell became their one carrier."""
    cell = RunCell(
        "gzip", GovernorSpec.pm(14.5, power_model="paper"), threads=2,
        fault_plan=FAULT_PLANS[1], adaptation=AdaptationConfig(),
        resilience=ResilienceConfig(),
    )
    plan = RunPlan(ExperimentConfig(scale=0.05, seed=3), (cell,))
    assert cell_digest(cell, plan) == (
        "4506b2a830c9ff9dd72c5ef39d9ed3f5b3a1c3976c139cd4c1ca61e13ef65547"
    )


FREQUENCIES = tuple(p.frequency_mhz for p in CONFIG.table)

def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


def _optional(strategy):
    return st.none() | strategy


ANY_WORKLOAD = st.sampled_from(
    sorted(w.name for w in default_registry())
) | st.builds(
    lambda name, seed: f"corpus:{name}" + ("" if seed is None else f"@{seed}"),
    st.sampled_from(corpus_names()),
    _optional(st.integers(min_value=0, max_value=2**31)),
)

POWER_MODELS = st.sampled_from(("trained", "paper")) | st.builds(
    LinearPowerModel,
    st.dictionaries(
        st.sampled_from(FREQUENCIES),
        st.builds(PStateCoefficients, _floats(0.0, 5.0), _floats(0.1, 20.0)),
        min_size=1,
    ),
)

PERFORMANCE_MODELS = _optional(
    st.builds(PerformanceModel, _floats(0.01, 5.0), _floats(0.0, 1.0))
)

ANY_GOVERNOR = st.one_of(
    st.builds(
        GovernorSpec.pm, _floats(5.0, 30.0), POWER_MODELS,
        _optional(st.integers(min_value=1, max_value=50)),
        _optional(_floats(0.0, 2.0)),
    ),
    st.builds(GovernorSpec.adaptive_pm, _floats(5.0, 30.0), POWER_MODELS),
    st.builds(GovernorSpec.ps, _floats(0.1, 1.0), PERFORMANCE_MODELS),
    st.just(GovernorSpec.dbs()),
    st.sampled_from(FREQUENCIES).map(GovernorSpec.fixed),
    st.builds(GovernorSpec.edp, POWER_MODELS, PERFORMANCE_MODELS),
    st.builds(GovernorSpec.energy_optimal, POWER_MODELS, PERFORMANCE_MODELS),
)

PROBABILITIES = _floats(0.0, 1.0)

ANY_FAULT_PLAN = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**31),
    enabled=st.booleans(),
    sample=st.builds(SampleFaults, drop_prob=PROBABILITIES,
                     garble_prob=PROBABILITIES),
    meter=st.builds(MeterFaults, spike_prob=PROBABILITIES,
                    drift_rate_per_s=_floats(0.0, 0.1)),
    transition=st.builds(TransitionFaults, fail_prob=PROBABILITIES),
    thermal=st.builds(ThermalFaults, stuck_prob=PROBABILITIES),
)

ANY_ADAPTATION = st.builds(
    AdaptationConfig,
    forgetting_factor=_floats(0.5, 1.0),
    cooldown_ticks=st.integers(min_value=0, max_value=500),
    widen_guardband=st.booleans(),
)

ANY_RESILIENCE = st.builds(
    ResilienceConfig,
    max_transition_retries=st.integers(min_value=0, max_value=5),
    retry_backoff_s=_floats(0.0, 0.01),
    safe_frequency_mhz=_optional(st.sampled_from(FREQUENCIES)),
    power_outlier_factor=_floats(1.5, 10.0),
)

ANY_CELL = st.builds(
    RunCell,
    workload=ANY_WORKLOAD,
    governor=ANY_GOVERNOR,
    seed_offset=st.integers(min_value=0, max_value=10_000),
    initial_frequency_mhz=_optional(st.sampled_from(FREQUENCIES)),
    group=_optional(st.text(max_size=8)),
    rep=st.integers(min_value=0, max_value=10),
    threads=st.integers(min_value=1, max_value=4),
    fault_plan=_optional(ANY_FAULT_PLAN),
    adaptation=_optional(ANY_ADAPTATION),
    resilience=_optional(ANY_RESILIENCE),
)


@settings(max_examples=200, deadline=None)
@given(cell=ANY_CELL)
def test_every_cell_round_trips_to_the_same_key(cell):
    """A cell's JSON form is the cell: it parses back equal and keys to
    the same store digest."""
    clone = RunCell.from_dict(json.loads(json.dumps(cell.to_dict())))
    assert clone == cell
    assert cell_digest(clone, RunPlan(CONFIG, (clone,))) == cell_digest(
        cell, RunPlan(CONFIG, (cell,))
    )
