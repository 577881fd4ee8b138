"""Benchmark: regenerate Fig. 8 (PS on ammp with an 80% floor)."""

from conftest import publish

from repro.experiments import fig8_ps_trace, run_section
from repro.exec import ExperimentConfig


def test_fig8_ps_trace(benchmark, results_dir):
    config = ExperimentConfig(scale=1.0, keep_trace=True)
    result = benchmark.pedantic(
        lambda: run_section(fig8_ps_trace, config),
        rounds=1,
        iterations=1,
    )
    publish(results_dir, "fig8", fig8_ps_trace.render(result))
    # The floor holds and energy is saved even at full load.
    assert result.reduction < 0.20
    assert result.savings > 0.08
    # PS visibly modulates between memory-bound (low f) and compute
    # (high f) regions -- the figure's defining feature.
    residency = result.powersave.residency_s
    assert min(residency) <= 1000.0
    assert max(residency) >= 1600.0
