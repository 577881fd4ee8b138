"""EnergyOptimalSearch behaviour."""

from __future__ import annotations

import pytest

from repro.acpi.pstates import pentium_m_755_table
from repro.core.governors.energy_optimal import EnergyOptimalSearch
from repro.core.models.performance import PerformanceModel
from repro.core.models.power import LinearPowerModel
from repro.core.sampling import CounterSample
from repro.errors import GovernorError
from repro.exec import ExperimentConfig, GovernorSpec, RunCell, execute_cell
from repro.platform.events import Event


@pytest.fixture()
def table():
    return pentium_m_755_table()


@pytest.fixture()
def search(table):
    return EnergyOptimalSearch(
        table,
        LinearPowerModel.paper_model(),
        PerformanceModel.paper_primary(),
        n_cores=4,
        serial_fraction=0.05,
        sync_overhead=0.01,
    )


def _sample(ipc: float, dpc: float | None = None, dcu: float | None = None):
    rates = {Event.INST_RETIRED: ipc}
    if dpc is not None:
        rates[Event.INST_DECODED] = dpc
    if dcu is not None:
        rates[Event.DCU_MISS_OUTSTANDING] = dcu
    return CounterSample(interval_s=0.01, cycles=2e7, rates=rates)


def test_grid_covers_threads_times_pstates(search, table):
    grid = search.project_grid(1.5, 1.8, 0.2, table.fastest)
    assert len(grid) == 4 * len(table.frequencies_mhz)
    assert {cell.threads for cell in grid} == {1, 2, 3, 4}


def test_core_bound_prefers_many_threads(search, table):
    best = search.best_configuration(1.5, 1.8, 0.1, table.fastest)
    assert best.threads == 4


def test_bandwidth_cap_limits_memory_bound_throughput(search, table):
    # 12 bytes/instruction saturates the 2.8 GB/s bus below 4 threads'
    # ideal scaling, so extra threads stop adding throughput.
    grid = search.project_grid(
        0.5, 0.6, 1.2, table.fastest, bytes_per_instruction=12.0
    )
    at_max = {c.threads: c for c in grid if c.pstate == table.fastest}
    assert at_max[4].throughput_ips == pytest.approx(
        search.bandwidth_ceiling_bytes_per_s / 12.0
    )
    # ...while power keeps growing with threads: energy says stop early.
    assert at_max[4].power_w > at_max[2].power_w


def test_decide_minimizes_energy_per_instruction(search, table):
    # Prime the multiplexed state: first group carries DPC, second DCU.
    search.reset()
    memory = _sample(0.45, dpc=0.5)
    search.decide(memory, table.fastest)
    target = search.decide(_sample(0.45, dcu=1.0), table.fastest)
    # A deeply memory-bound sample makes down-clocking nearly free.
    assert target.frequency_mhz < 2000.0


def test_governor_validation(table):
    power = LinearPowerModel.paper_model()
    perf = PerformanceModel.paper_primary()
    with pytest.raises(GovernorError, match="n_cores"):
        EnergyOptimalSearch(table, power, perf, n_cores=0)
    with pytest.raises(GovernorError, match="thread_counts"):
        EnergyOptimalSearch(table, power, perf, n_cores=2, thread_counts=(3,))


def test_energy_optimal_four_threads_completes_at_full_scale():
    """ammp on 4 cores oversubscribes the bus with a zero-demand core."""
    result = execute_cell(
        RunCell(
            workload="ammp", governor=GovernorSpec.energy_optimal(),
            threads=4,
        ),
        ExperimentConfig(scale=1.0, seed=0),
    )
    assert result.instructions > 0
