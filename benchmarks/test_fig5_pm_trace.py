"""Benchmark: regenerate Fig. 5 (PM controlling ammp at two limits)."""

from conftest import publish

from repro.experiments import fig5_pm_trace, run_section
from repro.exec import ExperimentConfig


def test_fig5_pm_trace(benchmark, results_dir):
    config = ExperimentConfig(scale=1.0, keep_trace=True)
    result = benchmark.pedantic(
        lambda: run_section(fig5_pm_trace, config),
        rounds=1,
        iterations=1,
    )
    publish(results_dir, "fig5", fig5_pm_trace.render(result))
    # Each tighter limit lowers mean power and stretches runtime.
    unconstrained = result.unconstrained
    pm_145 = result.limited[14.5]
    pm_105 = result.limited[10.5]
    assert pm_105.mean_power_w < pm_145.mean_power_w < (
        unconstrained.mean_power_w
    )
    assert pm_105.duration_s > pm_145.duration_s > unconstrained.duration_s
    # The limits hold on the 100 ms window (ammp is predictable).
    assert result.violation_fraction(14.5) < 0.02
    assert result.violation_fraction(10.5) < 0.02
