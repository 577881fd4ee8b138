"""Benchmark: regenerate Table II (the DPC power model fit)."""

from conftest import publish

from repro.experiments import table2_power_model, run_section


def test_table2_power_model(benchmark, bench_config, results_dir):
    result = benchmark.pedantic(
        lambda: run_section(table2_power_model, bench_config),
        rounds=1,
        iterations=1,
    )
    publish(results_dir, "table2", table2_power_model.render(result))
    # Reproduction gate: coefficients within 25% of the paper's.
    assert result.max_deviation < 0.25
