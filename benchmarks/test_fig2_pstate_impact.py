"""Benchmark: regenerate Fig. 2 (p-state impact: swim/gap/sixtrack)."""

from conftest import publish

from repro.experiments import fig2_pstate_impact, run_section


def test_fig2_pstate_impact(benchmark, bench_config, results_dir):
    result = benchmark.pedantic(
        lambda: run_section(fig2_pstate_impact, bench_config),
        rounds=1,
        iterations=1,
    )
    publish(results_dir, "fig2", fig2_pstate_impact.render(result))
    swim = result.frequency_sensitivity("swim")
    gap = result.frequency_sensitivity("gap")
    sixtrack = result.frequency_sensitivity("sixtrack")
    assert swim < 1.05          # flat
    assert sixtrack > 1.22      # ~linear (1.25 max)
    assert swim < gap < sixtrack
