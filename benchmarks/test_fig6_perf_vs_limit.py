"""Benchmark: regenerate Fig. 6 (performance vs power limit, dynamic vs
static clocking) together with the §IV-A2 violation analysis."""

from conftest import publish

from repro.experiments import fig6_perf_vs_limit, run_section


def test_fig6_perf_vs_limit(benchmark, bench_config, results_dir):
    result = benchmark.pedantic(
        lambda: run_section(fig6_perf_vs_limit, bench_config),
        rounds=1,
        iterations=1,
    )
    publish(results_dir, "fig6", fig6_perf_vs_limit.render(result))
    dynamic = result.dynamic_performance
    static = result.static_performance
    # Dynamic >= static except for sub-% noise at static's sweet spots.
    for limit in dynamic:
        assert dynamic[limit] >= static[limit] - 0.02, limit
    # The PM advantage is largest where static must drop a whole bin.
    assert dynamic[16.5] - static[16.5] > 0.02
    # Performance decays monotonically with the limit.
    ordered = [dynamic[l] for l in sorted(dynamic, reverse=True)]
    assert all(a >= b - 0.005 for a, b in zip(ordered, ordered[1:]))
    # galgel is the only material violator (paper: ~10% at 13.5 W).
    assert set(result.violators(0.02)) <= {"galgel"}
    worst_limit, worst_name, worst_frac = result.worst_violation()
    assert worst_name == "galgel"
    assert worst_frac < 0.25
