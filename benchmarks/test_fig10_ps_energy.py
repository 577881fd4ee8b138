"""Benchmark: regenerate Fig. 10 (per-workload PS energy savings)."""

from conftest import publish

from repro.experiments import fig10_ps_energy, run_section
from repro.workloads.spec import CORE_BOUND_GROUP, MEMORY_BOUND_GROUP


def test_fig10_ps_energy(benchmark, bench_config, results_dir):
    result = benchmark.pedantic(
        lambda: run_section(fig10_ps_energy, bench_config),
        rounds=1,
        iterations=1,
    )
    publish(results_dir, "fig10", fig10_ps_energy.render(result))
    order = result.sorted_names()
    # The paper's sort: memory-bound on the high-savings side, core-bound
    # on the low side, ALLBENCH separating above/below average.
    memory_rank = sum(order.index(n) for n in MEMORY_BOUND_GROUP)
    core_rank = sum(order.index(n) for n in CORE_BOUND_GROUP)
    assert memory_rank / len(MEMORY_BOUND_GROUP) < (
        core_rank / len(CORE_BOUND_GROUP)
    )
    # Savings grow as the floor loosens, for every workload.
    for name in order:
        series = [result.savings[f][name] for f in sorted(result.savings)]
        # floors sorted ascending = loosest first; savings descending.
        assert series == sorted(series, reverse=True) or (
            max(series) - min(series) < 0.03
        )
    # Memory-bound workloads at the 80% floor already save heavily.
    assert result.savings[0.80]["swim"] > 0.45
    # Core-bound workloads save little at the 80% floor.
    assert result.savings[0.80]["sixtrack"] < 0.20
