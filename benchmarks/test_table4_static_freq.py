"""Benchmark: regenerate Table IV (power limit -> static frequency)."""

from conftest import publish

from repro.experiments import table4_static_freq, run_section
from repro.exec import ExperimentConfig


def test_table4_static_frequencies(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: run_section(table4_static_freq, ExperimentConfig()),
        rounds=1,
        iterations=1,
    )
    publish(results_dir, "table4", table4_static_freq.render(result))
    assert result.matches_paper
