"""Benchmark: regenerate Table III (worst-case FMA-256KB power sweep)."""

from conftest import publish

from repro.experiments import table3_worst_case, run_section
from repro.exec import ExperimentConfig


def test_table3_worst_case(benchmark, results_dir):
    config = ExperimentConfig(scale=3.0)  # microbenchmark budgets are short
    result = benchmark.pedantic(
        lambda: run_section(table3_worst_case, config),
        rounds=1,
        iterations=1,
    )
    publish(results_dir, "table3", table3_worst_case.render(result))
    # The static-clocking-relevant frequencies must be tight.
    for freq in (1400.0, 1600.0, 1800.0, 2000.0):
        assert result.deviation(freq) < 0.05
