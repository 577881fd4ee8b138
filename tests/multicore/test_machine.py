"""MulticoreMachine: 1-core bit-identity and N-core contention behaviour.

Every run goes through :class:`PowerManagementController`, which runs a
multicore package as one kernel lane per core.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.checkpoint.digest import run_result_digest
from repro.core.controller import PowerManagementController
from repro.core.governors.powersave import PowerSave
from repro.core.governors.unconstrained import FixedFrequency
from repro.core.models.performance import PerformanceModel
from repro.core.models.power import LinearPowerModel
from repro.errors import ExperimentError, WorkloadError
from repro.exec import GovernorSpec, RunCell
from repro.multicore.contention import ContentionModel
from repro.multicore.machine import MulticoreConfig, MulticoreMachine
from repro.platform.machine import Machine, MachineConfig
from repro.workloads import default_registry
from repro.workloads.base import Phase, Workload


def _mem_workload(budget: float = 4e7) -> Workload:
    phase = Phase(
        name="mem",
        instructions=budget,
        cpi_core=0.9,
        decode_ratio=1.2,
        l1_mpi=0.04,
        l2_mpi=0.03,
        mlp=2.0,
        activity_jitter=0.0,
    )
    return Workload("mem", (phase,), budget, category="memory")


def _core_workload(budget: float = 4e7) -> Workload:
    phase = Phase(
        name="core",
        instructions=budget,
        cpi_core=0.8,
        decode_ratio=1.4,
        activity_jitter=0.0,
    )
    return Workload("core", (phase,), budget, category="core")


#: Jittered SPEC workloads (galgel is the burstiest), a generated
#: scenario trace and two jitter-free synthetic workloads.
WORKLOADS = {
    "swim": "swim",
    "galgel": "galgel",
    "crafty": "crafty",
    "corpus": "corpus:etl-scan-heavy",
    "mem": _mem_workload(6e8),
    "core": _core_workload(6e8),
}

GOVERNORS = {
    "pm": GovernorSpec.pm(14.5, power_model=LinearPowerModel.paper_model()),
    "ps": GovernorSpec.ps(0.8),
    "dbs": GovernorSpec.dbs(),
    "fixed": GovernorSpec.fixed(1400.0),
    "energy-optimal": GovernorSpec.energy_optimal(power_model="paper"),
}


def _run(machine, governor, workload, threads=None):
    """One fixed-frequency-at-P0 run of ``workload`` on ``machine``."""
    table = MachineConfig().table
    return PowerManagementController(
        machine, governor or FixedFrequency(table, 2000.0)
    ).run(workload, threads=threads)


@settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    workload=st.sampled_from(sorted(WORKLOADS)),
    governor=st.sampled_from(sorted(GOVERNORS)),
    seed=st.integers(min_value=0, max_value=10_000),
    scale=st.sampled_from([0.01, 0.02, 0.05]),
)
def test_one_core_multicore_run_is_the_single_core_run(
    workload, governor, seed, scale
):
    """The acceptance gate: a 1-core MulticoreMachine run digests
    bit-identically to the same run on a single-core Machine."""
    work = WORKLOADS[workload]
    if isinstance(work, str):
        work = RunCell(work, GOVERNORS[governor]).resolve_workload()
    work = work.scaled(scale)
    config = MachineConfig(seed=seed)
    spec = GOVERNORS[governor]

    single = Machine(config)
    ref = PowerManagementController(
        single, spec.build(config.table)
    ).run(work)
    multi = MulticoreMachine(MulticoreConfig(n_cores=1, machine=config))
    out = PowerManagementController(
        multi, spec.build(config.table)
    ).run(work)

    assert run_result_digest(out) == run_result_digest(ref)
    assert multi.now_s == single.now_s


def test_one_core_run_digest_bit_identical():
    """The acceptance gate: 1-core multicore == single-core Machine."""
    workload = default_registry().get("ammp").scaled(0.02)

    single = Machine(MachineConfig(seed=7))
    ref = PowerManagementController(
        single, PowerSave(single.config.table, PerformanceModel.paper_primary(), 0.8)
    ).run(workload)

    multi = MulticoreMachine(MulticoreConfig(
        n_cores=1, machine=MachineConfig(seed=7)
    ))
    out = PowerManagementController(
        multi, PowerSave(multi.config.machine.table, PerformanceModel.paper_primary(), 0.8)
    ).run(workload, threads=1)

    assert run_result_digest(out) == run_result_digest(ref)


def test_one_core_digest_holds_with_jittered_workload():
    """Jittered phases draw from the RNG every tick; streams must align."""
    workload = default_registry().get("swim").scaled(0.01)

    single = Machine(MachineConfig(seed=3))
    ref = PowerManagementController(
        single, PowerSave(single.config.table, PerformanceModel.paper_primary(), 0.85)
    ).run(workload)

    multi = MulticoreMachine(MulticoreConfig(
        n_cores=1, machine=MachineConfig(seed=3)
    ))
    out = PowerManagementController(
        multi, PowerSave(multi.config.machine.table, PerformanceModel.paper_primary(), 0.85)
    ).run(workload, threads=1)

    assert run_result_digest(out) == run_result_digest(ref)


def test_zero_memory_bound_sees_no_contention_penalty():
    """Pure core-bound shards exert ~zero bus demand: no slowdown."""
    budget = 3e7
    single = MulticoreMachine(MulticoreConfig(
        n_cores=1, machine=MachineConfig(seed=0)
    ))
    lone = _run(single, None, _core_workload(budget))

    quad = MulticoreMachine(MulticoreConfig(
        n_cores=4, machine=MachineConfig(seed=0)
    ))
    wide = _run(quad, None, _core_workload(4 * budget))
    assert quad.peak_bus_utilization < 0.05
    # Perfect scaling: 4 cores finish 4x the work in the same time.
    assert wide.duration_s == pytest.approx(lone.duration_s, rel=1e-6)


def test_all_memory_bound_saturates_at_bandwidth_ceiling():
    """Aggregate traffic of memory-bound cores caps at the ceiling."""
    config = MulticoreConfig(n_cores=4, machine=MachineConfig(seed=0))
    machine = MulticoreMachine(config)
    workload = _mem_workload(8e7)
    result = _run(machine, None, workload)
    ceiling = config.contention.ceiling(config.machine.timing)

    assert machine.peak_bus_utilization > 1.0  # genuinely oversubscribed
    (phase,) = workload.phases
    bytes_pi = (phase.l2_mpi + phase.prefetch_mpi) * 64.0 * 1.35
    aggregate = result.instructions * bytes_pi / result.duration_s
    assert aggregate <= ceiling * 1.02
    assert aggregate >= ceiling * 0.7


def test_memory_bound_scaling_is_sublinear_core_bound_is_not():
    def completion_time(make, cores):
        machine = MulticoreMachine(MulticoreConfig(
            n_cores=cores, machine=MachineConfig(seed=0)
        ))
        return _run(machine, None, make(cores * 2e7)).duration_s

    core_1, core_4 = completion_time(_core_workload, 1), completion_time(
        _core_workload, 4
    )
    mem_1, mem_4 = completion_time(_mem_workload, 1), completion_time(
        _mem_workload, 4
    )
    # Core-bound: 4x work on 4 cores takes the same time.
    assert core_4 / core_1 < 1.05
    # Memory-bound: contention stretches completion well past 1x.
    assert mem_4 / mem_1 > 1.3


def test_config_validation():
    with pytest.raises(ExperimentError, match="n_cores"):
        MulticoreConfig(n_cores=0)
    with pytest.raises(ExperimentError, match="latency_slope"):
        ContentionModel(latency_slope=-1.0)
    with pytest.raises(ExperimentError, match="max_utilization"):
        ContentionModel(max_utilization=1.5)


def test_load_rejects_bad_thread_counts():
    machine = MulticoreMachine(MulticoreConfig(n_cores=2))
    with pytest.raises(WorkloadError, match="threads"):
        machine.load(_core_workload(), threads=3)
    with pytest.raises(WorkloadError, match="threads"):
        machine.load(_core_workload(), threads=0)


def test_idle_cores_burn_idle_power():
    """threads < n_cores: unused cores still cost energy every tick."""
    lone = _run(
        MulticoreMachine(MulticoreConfig(n_cores=1)), None,
        _core_workload(2e7),
    )
    wide = _run(
        MulticoreMachine(MulticoreConfig(n_cores=4)), None,
        _core_workload(2e7), threads=1,
    )
    assert wide.duration_s == lone.duration_s
    assert wide.true_energy_j > lone.true_energy_j * 1.5
