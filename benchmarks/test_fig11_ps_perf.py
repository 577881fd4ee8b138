"""Benchmark: regenerate Fig. 11 (per-workload PS performance reduction)
including the paper's exponent ablation (0.81 vs 0.59, §IV-B2)."""

from conftest import publish

from repro.experiments import fig11_ps_perf, run_section


def test_fig11_ps_perf(benchmark, bench_config, results_dir):
    result = benchmark.pedantic(
        lambda: run_section(fig11_ps_perf, bench_config),
        rounds=1,
        iterations=1,
    )
    publish(results_dir, "fig11", fig11_ps_perf.render(result))

    # Paper at the 80% floor with e=0.81: art 42.2%, mcf 27.7%.
    violators = result.violations(0.80)
    assert set(violators) == {"art", "mcf"}
    assert 0.35 < violators["art"] < 0.50
    assert 0.22 < violators["mcf"] < 0.33

    # e=0.59 repairs mcf (paper: 17.9%) and improves art (26.3%).
    alt = result.violations(0.80, alternative=True)
    assert "mcf" not in alt
    assert result.reduction_alt[0.80]["art"] < result.reduction[0.80]["art"]

    # Shape: memory-bound lose least, core-bound most (paper's ordering).
    order = result.sorted_names()
    assert order.index("lucas") < order.index("crafty")
    assert order.index("swim") < order.index("sixtrack")
