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

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptation.manager import AdaptationConfig, AdaptationManager
from repro.checkpoint import run_result_digest
from repro.core import blockloop
from repro.core.governors.energy_optimal import EnergyOptimalSearch
from repro.core.governors.performance_maximizer import PerformanceMaximizer
from repro.errors import ExperimentError
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

#: Governors with a table mode (a stock or adaptive PM, PS, DBS, fixed
#: frequency, or the energy-optimal search over its two counter groups).
POWER_MODELS = st.sampled_from(("paper", "trained"))
TABLE_GOVERNORS = st.one_of(
    st.builds(GovernorSpec.pm, st.floats(11.0, 18.0), POWER_MODELS),
    st.builds(GovernorSpec.adaptive_pm, st.floats(11.0, 18.0), POWER_MODELS),
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


def _observed_bundles(cell, tmp_path, monkeypatch):
    """The bundle records of ``cell`` observed in table mode, then in
    hook mode."""
    plan = RunPlan(ExperimentConfig(scale=0.5, seed=4, keep_trace=True),
                   (cell,))
    records = []
    for name in ("table", "hook"):
        if name == "hook":
            _hook_mode(monkeypatch)
        with open_session(telemetry_dir=tmp_path / name) as session:
            (result,) = session.run_plan(plan)
        records.append(bundle_record(tmp_path / name, result))
    return records


@pytest.mark.parametrize("governor", [
    GovernorSpec.energy_optimal(), GovernorSpec.pm(14.5),
], ids=["energy-optimal", "pm"])
def test_observed_two_core_table_mode_matches_hook_mode(governor, tmp_path,
                                                         monkeypatch):
    """An observed two-core run writes the bundle (event hashes, trace,
    metrics) of the same run in hook mode."""
    table, hook = _observed_bundles(
        RunCell("ammp", governor, threads=2), tmp_path, monkeypatch
    )
    assert table == hook


@pytest.mark.parametrize("cell", [
    # Offsets learned at 2000 MHz, then 1600: a tie at 1800 takes 2000's.
    RunCell("galgel", GovernorSpec.adaptive_pm(13.5, "paper")),
    # From 1000 MHz up: a tie takes the slower state's offset.
    RunCell("ammp", GovernorSpec.adaptive_pm(17.0), threads=2,
            initial_frequency_mhz=1000.0),
], ids=["single-core", "two-core"])
def test_observed_adaptive_pm_table_mode_matches_hook_mode(cell, tmp_path,
                                                           monkeypatch):
    """An observed adaptive PM writes the bundle of the same run in hook
    mode: each estimate takes the offset of the nearest visited state
    (a tie goes to the state visited first), as the tick's
    ``observe_power`` left them."""
    table, hook = _observed_bundles(cell, tmp_path, monkeypatch)
    assert table == hook


def _adapting_run(cell, config, directory):
    """Run ``cell`` (observed when ``directory`` is given); returns how
    many times the governor's ``decide`` ran, and the run's digest,
    bundle and adaptation state."""
    engaged = []
    decisions = []
    engage = AdaptationManager.engage
    decide = PerformanceMaximizer.decide

    def spy_engage(self, governor, *args, **kwargs):
        engaged.append((self, governor))
        return engage(self, governor, *args, **kwargs)

    def spy_decide(self, *args):
        decisions.append(None)
        return decide(self, *args)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(AdaptationManager, "engage", spy_engage)
        monkeypatch.setattr(PerformanceMaximizer, "decide", spy_decide)
        with open_session(telemetry_dir=directory) as session:
            (result,) = session.run_plan(RunPlan(config, (cell,)))
    ((manager, governor),) = engaged
    rls = manager._rls
    learned = getattr(governor, "_offsets", {})
    return len(decisions), {
        "digest": run_result_digest(result),
        "bundle": (
            bundle_record(directory, result) if directory is not None
            else None
        ),
        "summary": dict(manager.summary()),
        "registry": manager.registry.to_json(),
        "rls": {
            freq: (state.t0, state.t1, state.p00, state.p01, state.p10,
                   state.p11, state.count)
            for freq, state in rls._states.items()
        },
        "guardband_w": governor.guardband_w,
        "model": governor.model,
        "offsets": list(learned.items()),
    }


@pytest.mark.parametrize("seed,threads,observed,governor", [
    (0, 1, False, GovernorSpec.pm(14.5)),
    (1, 1, False, GovernorSpec.pm(14.5)),
    (0, 1, True, GovernorSpec.pm(14.5)),
    (1, 2, False, GovernorSpec.pm(14.5)),
    (0, 1, True, GovernorSpec.adaptive_pm(14.5)),
], ids=["seed0", "seed1", "observed", "two-core", "adaptive-pm"])
def test_adapting_pm_table_mode_matches_hook_mode(seed, threads, observed,
                                                  governor, tmp_path,
                                                  monkeypatch):
    """PM with online adaptation decides from the kernel's table, with
    the digest, telemetry bundle and adaptation state (registry, RLS
    floats, the governor's model, guardband and an adaptive PM's learned
    offsets, which a model swap drops) of the same run deciding on the
    objects.  Each of these galgel runs recalibrates."""
    cell = RunCell(
        "galgel", governor, adaptation=AdaptationConfig(), threads=threads,
    )
    config = ExperimentConfig(scale=1.0, seed=seed, keep_trace=True)
    runs = {}
    for name in ("table", "hook"):
        if name == "hook":
            _hook_mode(monkeypatch)
        directory = tmp_path / name if observed else None
        runs[name] = _adapting_run(cell, config, directory)
    (table_decisions, table), (hook_decisions, hook) = (
        runs["table"], runs["hook"]
    )
    assert table_decisions == 0 < hook_decisions
    assert table == hook
    assert table["summary"]["recalibrations"] >= 1


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


def _lane_state(core):
    """What the kernel leaves in one core's objects."""
    cursor = core._cursor
    pmu = core.pmu
    dvfs = core.dvfs
    return {
        "time_s": core._time_s,
        "msr": dict(core.msr._values),
        "cursor": (cursor._phase_index, cursor._into_phase, cursor._retired),
        "jitter_log": core._jitter_log,
        "charged": core._charged_dead_time_s,
        "dvfs": (dvfs.current, dvfs.total_dead_time_s),
        "pmu": (list(pmu._events), list(pmu._residuals),
                pmu._cycle_residual),
        "rng": core._rng.bit_generator.state,
    }


def _governor_state(governor):
    """What the kernel writes back to a governor's decision state: a
    PM's raise streak, an adaptive PM's learned offsets (in visit
    order) and last decision, energy-optimal's last-known rates."""
    return {
        name: (
            list(value.items()) if isinstance(value, dict) else value
        )
        for name, value in vars(governor).items()
        if name in (
            "_raise_streak", "_pending_raise", "_offsets", "_last_state",
            "_last_sample", "_dpc", "_dcu",
        )
    }


def _final_state(cell, config, monkeypatch):
    """A run's digest (or the error it ended on) and what it leaves in
    the objects the kernel writes back: every lane's full state, the
    sampler and the governor's decision state."""
    states = []
    run_fast = blockloop.run_fast

    def keep_state(st, tel):
        states.append(st)
        return run_fast(st, tel)

    with monkeypatch.context() as patch:
        patch.setattr(blockloop, "run_fast", keep_state)
        try:
            outcome = run_result_digest(prepare_cell(cell, config).execute())
        except ExperimentError as error:
            outcome = str(error)
    (st,) = states
    sampler = st.sampler
    samplers = getattr(sampler, "_samplers", (sampler,))
    return {
        "outcome": outcome,
        "lanes": [_lane_state(lane) for lane in st.lanes],
        "index": getattr(sampler, "_index", None),
        # The kernel keeps the last closed interval's sample: a
        # rotation's other group keeps an older one.
        "samplers": [s._last for s in samplers],
        "last_sample": sampler.last_sample,
        "governor": _governor_state(st.governor),
    }


#: sha256 of each case's lane states (:func:`_lanes_sha256`) as the
#: kernel left them when every lane went through the objects on every
#: tick (``_load`` / ``_store`` on each lane switch).
EO = GovernorSpec.energy_optimal(power_model="paper")
PM = GovernorSpec.pm(14.5, power_model="paper")
APM = GovernorSpec.adaptive_pm(11.0, power_model="paper")
OBJECT_CASES = {
    "energy-optimal": (EO, 1, 600.0, (
        "368c56f44ba7b96fa894529eab39408ab5bba84ca0e56952bdb4a2ddc72d5709"
    )),
    "energy-optimal-t2": (EO, 2, 600.0, (
        "b70e9daf823a1334c03b303da209f2e90fc6fcad3edb28500131fe0150467798"
    )),
    "pm-t2": (PM, 2, 600.0, (
        "5b69c9041174d25cc7c6fec8cea7aa3b01207961d14583d04ac8c9249215f3d5"
    )),
    "dbs-t3": (GovernorSpec.dbs(), 3, 600.0, (
        "ab306c87d9fb6a5057a9d72b5d0e1fa32b7e5b65ab5832a0d58681440218a85f"
    )),
    "energy-optimal-t4": (EO, 4, 600.0, (
        "1110a3904c6db050f9b20d58df089a902ea2b81905f0c79c678c6bbc32cf4b91"
    )),
    "ps-t4": (GovernorSpec.ps(0.6), 4, 600.0, (
        "eaa194e24b7a017ab4c867d506652f653d8248384dded73d955918290ca99132"
    )),
    # Runs that end on the max_seconds raise.
    "energy-optimal-t2-raise": (EO, 2, 0.05, (
        "622939d02ca7812266629812abb2429feabdf0a728d1361db85954d8c3b9d8cc"
    )),
    "pm-t3-raise": (PM, 3, 0.05, (
        "f39deca354d66692e1ddd3ce621b0287bbb993647c2aba87a8d7ec455c4fb4ff"
    )),
    # An adaptive PM that learns offsets for 2000, 1400 and 1600 MHz, in
    # that order.
    "adaptive-pm": (APM, 1, 600.0, (
        "1059f525d6e6b634074b4bfafbffcd4cbdae7dfab2fd775269a7bd5cfc17de5c"
    )),
    "adaptive-pm-raise": (APM, 1, 0.05, (
        "d315f650dae4791f1bc93180c6a956b3784a2892d7444e6f5ca3b1a8972f9796"
    )),
    "adaptive-pm-t2-raise": (APM, 2, 0.05, (
        "c8f38ba4e7940e243ae11dc79971840ae78e7561c3a02058d6b07ba4d74b73ef"
    )),
}


def _lanes_sha256(state):
    return hashlib.sha256(
        json.dumps(state["lanes"], sort_keys=True, default=repr).encode()
    ).hexdigest()


@pytest.mark.parametrize(
    "governor,threads,max_seconds,lanes_sha256",
    list(OBJECT_CASES.values()), ids=list(OBJECT_CASES),
)
def test_table_mode_leaves_the_objects_of_hook_mode(governor, threads,
                                                      max_seconds,
                                                      lanes_sha256,
                                                      monkeypatch):
    """Table mode keeps a package's lanes in the kernel between ticks
    and writes them back at the exit, also on the ``max_seconds`` raise;
    hook mode writes them before every decision.  Both leave every
    lane's objects (and the governor's decision state) as the other
    does, and the lanes as the per-tick round trip through the objects
    left them."""
    cell = RunCell("galgel", governor, threads=threads)
    config = ExperimentConfig(scale=0.3, seed=6, max_seconds=max_seconds)
    table = _final_state(cell, config, monkeypatch)
    if max_seconds < 600.0:
        assert "exceeded" in table["outcome"]
    assert _lanes_sha256(table) == lanes_sha256
    _hook_mode(monkeypatch)
    assert table == _final_state(cell, config, monkeypatch)
