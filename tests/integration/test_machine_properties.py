"""Machine-level property tests: conservation laws under random inputs.

These invariants must survive any workload shape and any governor
behaviour: time is conserved between machine, meter and residency;
energy equals integrated power; instruction accounting is exact; and
governed runs are reproducible for a fixed seed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.controller import PowerManagementController
from repro.core.governors.performance_maximizer import PerformanceMaximizer
from repro.core.governors.powersave import PowerSave
from repro.core.governors.unconstrained import FixedFrequency
from repro.core.models.performance import PerformanceModel
from repro.core.models.power import LinearPowerModel
from repro.platform.machine import Machine, MachineConfig
from repro.workloads.base import Phase, Workload

MODEL = LinearPowerModel.paper_model()

phase_strategy = st.builds(
    Phase,
    name=st.just("hyp"),
    instructions=st.floats(5e6, 8e7),
    cpi_core=st.floats(0.5, 2.0),
    decode_ratio=st.floats(1.0, 1.8),
    l1_mpi=st.floats(0.0, 0.08),
    l2_mpi=st.just(0.0),
    mlp=st.floats(1.0, 6.0),
    fp_ratio=st.floats(0.0, 0.8),
    activity_jitter=st.floats(0.0, 0.1),
    jitter_corr=st.floats(0.0, 0.9),
)


def workload_from(phases):
    # allow l2 misses derived from l1 so the l2<=l1 invariant holds
    fixed = []
    for i, phase in enumerate(phases):
        fixed.append(
            Phase(
                name=f"hyp{i}",
                instructions=phase.instructions,
                cpi_core=phase.cpi_core,
                decode_ratio=phase.decode_ratio,
                l1_mpi=phase.l1_mpi,
                l2_mpi=phase.l1_mpi * 0.5,
                mlp=phase.mlp,
                fp_ratio=phase.fp_ratio,
                activity_jitter=phase.activity_jitter,
                jitter_corr=phase.jitter_corr,
            )
        )
    return Workload.from_phases("hyp", fixed, repeats=1.5)


governor_strategy = st.sampled_from(
    [
        lambda t: FixedFrequency(t, 2000.0),
        lambda t: FixedFrequency(t, 600.0),
        lambda t: PerformanceMaximizer(t, MODEL, 13.5),
        lambda t: PowerSave(t, PerformanceModel.paper_primary(), 0.6),
    ]
)


@settings(max_examples=25, deadline=None)
@given(
    phases=st.lists(phase_strategy, min_size=1, max_size=3),
    factory=governor_strategy,
    seed=st.integers(0, 5),
)
def test_conservation_laws(phases, factory, seed):
    workload = workload_from(phases)
    machine = Machine(MachineConfig(seed=seed))
    controller = PowerManagementController(machine, factory(machine.config.table))
    result = controller.run(workload, max_seconds=120.0)

    # Work conservation: everything the workload owed was retired.
    assert result.instructions == pytest.approx(
        workload.total_instructions, rel=1e-6
    )
    # Time conservation: residency partitions the run.
    assert sum(result.residency_s.values()) == pytest.approx(
        result.duration_s, rel=1e-9
    )
    # Meter conservation: samples cover the full duration.
    covered = sum(s.duration_s for s in result.samples)
    assert covered == pytest.approx(result.duration_s, rel=1e-6)
    # Energy consistency: measured and true energy agree to noise level.
    assert result.measured_energy_j == pytest.approx(
        result.true_energy_j, rel=0.05
    )
    # Power sanity: every sample within the platform's physical range.
    for sample in result.samples:
        assert 1.0 < sample.true_watts < 25.0


@settings(max_examples=10, deadline=None)
@given(
    phases=st.lists(phase_strategy, min_size=1, max_size=2),
    seed=st.integers(0, 3),
)
def test_governed_runs_are_reproducible(phases, seed):
    workload = workload_from(phases)

    def run_once():
        machine = Machine(MachineConfig(seed=seed))
        governor = PerformanceMaximizer(machine.config.table, MODEL, 14.5)
        controller = PowerManagementController(machine, governor)
        return controller.run(workload, max_seconds=120.0)

    a = run_once()
    b = run_once()
    assert a.duration_s == b.duration_s
    assert a.measured_energy_j == b.measured_energy_j
    assert a.residency_s == b.residency_s


@settings(max_examples=15, deadline=None)
@given(
    phases=st.lists(phase_strategy, min_size=1, max_size=2),
    limit=st.sampled_from([10.5, 12.5, 14.5, 17.5]),
)
def test_oracle_never_truly_violates_on_stationary_phases(phases, limit):
    """With perfect knowledge and jitter-free phases, the 100 ms window
    never exceeds the limit (up to measurement noise) except by what
    the ticks the oracle did not pick a p-state for burn over it.

    Those reactive ticks are the first one, which runs at the start
    p-state before any decision, and every tick that crosses a phase
    boundary, which runs at the p-state picked for the phase before.
    A reactive tick's excess depends on the phase: P0 on an FP-heavy
    phase burns 7-8 W over a 10.5 W limit, so no fixed allowance fits.
    """
    from repro.core.governors.oracle import OraclePerformanceMaximizer

    calm = [
        Phase(
            name=f"c{i}",
            instructions=p.instructions,
            cpi_core=p.cpi_core,
            decode_ratio=p.decode_ratio,
            l1_mpi=p.l1_mpi,
            l2_mpi=p.l1_mpi * 0.5,
            mlp=p.mlp,
            fp_ratio=p.fp_ratio,
            activity_jitter=0.0,
        )
        for i, p in enumerate(phases)
    ]
    workload = Workload.from_phases("calm", calm, repeats=1.5)
    machine = Machine(MachineConfig(seed=0))
    governor = OraclePerformanceMaximizer(
        machine.config.table, machine.oracle_power, limit
    )
    controller = PowerManagementController(machine, governor)
    result = controller.run(workload, max_seconds=120.0)

    boundaries = []
    position = 0.0
    while position < workload.total_instructions:
        for phase in calm:
            position += phase.instructions
            boundaries.append(position)
    excess = []
    retired = 0.0
    for index, row in enumerate(result.trace):
        start, retired = retired, retired + row.instructions
        reactive = index == 0 or any(
            start - 1.0 < b < retired + 1.0 for b in boundaries
        )
        excess.append(
            max(0.0, row.true_power_w - limit) if reactive else 0.0
        )
    assert len(excess) == len(result.samples)
    for end, (_, watts) in enumerate(result.moving_average_power(10), 10):
        # Measurement noise, plus the reactive ticks' excess.
        assert watts <= limit + 0.3 + sum(excess[end - 10:end]) / 10
