"""The fused-loop contract: the kernel reproduces the scalar loop's runs.

Every single-core run takes :func:`repro.core.blockloop.run_fast`.  The
scalar reference loop it replaced (one ``Machine.step`` per tick) is
kept as data: ``golden_loop.json`` holds the float-exact
:func:`run_result_digest` (every trace row, meter sample and energy
accumulator) of each cell in :mod:`.golden_cells`, recorded on that
loop.  The kernel must reproduce every digest bit for bit, also when a
plan resumes from a result store.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import run_result_digest
from repro.core import blockloop
from repro.core.governors.energy_optimal import EnergyOptimalSearch
from repro.exec import (
    ExperimentConfig,
    GovernorSpec,
    RunCell,
    RunPlan,
    execute_cell,
    open_session,
    prepare_cell,
)
from repro.telemetry import TelemetryRecorder
from repro.workloads.registry import default_registry

from .golden_cells import (
    CELLS,
    GOVERNORS,
    LAST_TRANSITION,
    bundle_record,
    checkpointed,
    load_fixture,
)

GOLDEN = load_fixture()

CASES = sorted(key for key in CELLS if key.startswith("case/"))
MULTICORE = sorted(key for key in CELLS if key.startswith("multicore/"))


def _check(key):
    assert run_result_digest(CELLS[key]()) == GOLDEN["cells"][key]


@pytest.mark.parametrize("name", sorted(GOVERNORS))
@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("adapt", [False, True], ids=["frozen", "adapt"])
def test_fast_loop_digest_matches_scalar(name, faults, adapt):
    _check(
        f"matrix/{name}/{'faults' if faults else 'clean'}/"
        f"{'adapt' if adapt else 'frozen'}"
    )


@pytest.mark.parametrize(
    "key", CASES, ids=[key.split("/", 1)[1] for key in CASES]
)
def test_case_digest_matches_scalar(key):
    """Each configuration the kernel once refused (thermal machines,
    throttling, the oracle, schedules, multiplexed counters, measured
    power, resilience under every fault family) runs on the kernel and
    reproduces the scalar loop's digest."""
    _check(key)


@pytest.mark.parametrize(
    "key", MULTICORE, ids=[key.split("/", 1)[1] for key in MULTICORE]
)
def test_multicore_digest_matches_lockstep_loop(key):
    """A ``threads > 1`` cell runs as per-core lanes of the kernel and
    reproduces the digest of the lock-step multicore loop (one
    ``Machine.step`` per core per tick) it replaced."""
    _check(key)


def test_fixture_covers_every_cell():
    assert set(GOLDEN["cells"]) == set(CELLS)


# -- kill / resume between cells ---------------------------------------------


def test_resume_plan_matches_scalar(tmp_path):
    digests, replayed = checkpointed(tmp_path / "j")
    assert replayed == 0
    assert digests == GOLDEN["resume"]


def test_last_decision_transition_adds_no_empty_residency():
    """A p-state entered on the run's last decision never runs a tick,
    so it gets no residency entry (not even 0.0 at the exit sync)."""
    cell, config = LAST_TRANSITION
    recorder = TelemetryRecorder()
    transitions = []
    recorder.bus.subscribe(
        lambda e: transitions.append(e) if e.kind == "transition" else None
    )
    result = execute_cell(cell, config, telemetry=recorder)
    # The case under test: this cell's last decision moves it to a
    # state it has not run at.
    assert transitions[-1].time_s == result.duration_s
    assert transitions[-1].to_mhz not in result.residency_s
    assert run_result_digest(result) == (
        GOLDEN["cells"]["case/last-transition"]
    )


# -- table modes = hook mode, over generated cells ---------------------------

SPEC_SUITE = tuple(w.name for w in default_registry().spec_suite())

#: Governors with a table mode (a stock PM, PS, DBS, fixed frequency,
#: or the energy-optimal search over its two counter groups).
POWER_MODELS = st.sampled_from(("paper", "trained"))
TABLE_GOVERNORS = st.one_of(
    st.builds(GovernorSpec.pm, st.floats(11.0, 18.0), POWER_MODELS),
    st.sampled_from((0.2, 0.4, 0.6, 0.8)).map(GovernorSpec.ps),
    st.just(GovernorSpec.dbs()),
    st.sampled_from((600.0, 1400.0, 2000.0)).map(GovernorSpec.fixed),
    st.builds(GovernorSpec.energy_optimal, POWER_MODELS),
)


def _hook_mode(monkeypatch):
    """Make every run take hook mode (the real sampler and governor)."""
    monkeypatch.setattr(blockloop, "_table_mode", lambda st: False)


@settings(max_examples=100, deadline=None)
@given(
    workload=st.sampled_from(SPEC_SUITE),
    threads=st.integers(1, 4),
    governor=TABLE_GOVERNORS,
    seed=st.integers(0, 2**16),
    scale=st.sampled_from((0.05, 0.2, 0.5, 1.0)),
)
def test_table_mode_matches_hook_mode(workload, threads, governor, seed,
                                      scale):
    """A table-mode run, single-core or a multicore package, has the
    digest (trace included) of the same run deciding on the objects."""
    cell = RunCell(workload=workload, governor=governor, threads=threads)
    config = ExperimentConfig(scale=scale, seed=seed, keep_trace=True)
    table = execute_cell(cell, config)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _hook_mode(monkeypatch)
        hook = execute_cell(cell, config)
    assert run_result_digest(table) == run_result_digest(hook)


@pytest.mark.parametrize("governor", [
    GovernorSpec.energy_optimal(), GovernorSpec.pm(14.5),
], ids=["energy-optimal", "pm"])
def test_observed_two_core_table_mode_matches_hook_mode(governor, tmp_path,
                                                         monkeypatch):
    """An observed two-core run writes the bundle (event hashes, trace,
    metrics) of the same run in hook mode."""
    plan = RunPlan(
        ExperimentConfig(scale=0.5, seed=4, keep_trace=True),
        (RunCell("ammp", governor, threads=2),),
    )
    records = []
    for name in ("table", "hook"):
        if name == "hook":
            _hook_mode(monkeypatch)
        with open_session(telemetry_dir=tmp_path / name) as session:
            (result,) = session.run_plan(plan)
        records.append(bundle_record(tmp_path / name, result))
    assert records[0] == records[1]


def test_energy_optimal_scan_fallback_matches_hook_mode(monkeypatch):
    """Where ``decide`` finds no objective row it scans the objective;
    so does the kernel."""
    rows = EnergyOptimalSearch._rows

    def rows_without_1400(self):
        out = rows(self)
        return {mhz: row for mhz, row in out.items() if mhz != 1400.0}

    monkeypatch.setattr(EnergyOptimalSearch, "_rows", rows_without_1400)
    cell = RunCell(
        "gzip", GovernorSpec.energy_optimal(power_model="paper"),
        initial_frequency_mhz=1400.0,
    )
    config = ExperimentConfig(scale=0.05, seed=2, keep_trace=True)
    scans = []
    scan = EnergyOptimalSearch._scan
    monkeypatch.setattr(
        EnergyOptimalSearch, "_scan",
        lambda self, *args: scans.append(args) or scan(self, *args),
    )
    table = execute_cell(cell, config)
    assert scans
    _hook_mode(monkeypatch)
    assert run_result_digest(table) == run_result_digest(
        execute_cell(cell, config)
    )


def _final_state(cell, config, monkeypatch):
    """A run's digest and what it leaves in the objects the kernel
    writes back: every lane's clock and registers, the lead PMU's
    programming, the sampler and the governor's last-known rates."""
    states = []
    run_fast = blockloop.run_fast

    def keep_state(st, tel):
        states.append(st)
        return run_fast(st, tel)

    with monkeypatch.context() as patch:
        patch.setattr(blockloop, "run_fast", keep_state)
        result = prepare_cell(cell, config).execute()
    (st,) = states
    sampler = st.sampler
    samplers = getattr(sampler, "_samplers", (sampler,))
    pmu = st.lanes[0].pmu
    return {
        "digest": run_result_digest(result),
        "lanes": [
            (lane._time_s, dict(lane.msr._values)) for lane in st.lanes
        ],
        "pmu": (list(pmu._events), list(pmu._residuals)),
        "index": getattr(sampler, "_index", None),
        # The kernel keeps the last closed interval's sample: a
        # rotation's other group keeps an older one.
        "samplers": [s._last for s in samplers],
        "last_sample": sampler.last_sample,
        "rates": (
            getattr(st.governor, "_dpc", None),
            getattr(st.governor, "_dcu", None),
        ),
    }


@pytest.mark.parametrize("governor,threads", [
    (GovernorSpec.energy_optimal(power_model="paper"), 1),
    (GovernorSpec.energy_optimal(power_model="paper"), 2),
    (GovernorSpec.pm(14.5, power_model="paper"), 2),
    (GovernorSpec.dbs(), 3),
], ids=["energy-optimal", "energy-optimal-t2", "pm-t2", "dbs-t3"])
def test_table_mode_leaves_the_objects_of_hook_mode(governor, threads,
                                                      monkeypatch):
    cell = RunCell("galgel", governor, threads=threads)
    config = ExperimentConfig(scale=0.3, seed=6)
    table = _final_state(cell, config, monkeypatch)
    _hook_mode(monkeypatch)
    assert table == _final_state(cell, config, monkeypatch)
