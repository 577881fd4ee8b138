"""Benchmark: regenerate Fig. 9 (suite-level PS trade-off curve).

Paper headlines: 19.2% energy savings for ~10% performance reduction at
the 80% floor; 30.8% loss at the 60% floor (allowed 40%).
"""

from conftest import publish

from repro.experiments import fig9_ps_suite, run_section


def test_fig9_ps_suite(benchmark, bench_config, results_dir):
    result = benchmark.pedantic(
        lambda: run_section(fig9_ps_suite, bench_config),
        rounds=1,
        iterations=1,
    )
    publish(results_dir, "fig9", fig9_ps_suite.render(result))
    # Every floor respected at suite level.
    for floor in result.reduction:
        assert result.floor_respected(floor), floor
    # The 80%-floor trade lands in the paper's regime.
    assert 0.05 < result.reduction[0.80] < 0.20
    assert 0.12 < result.savings[0.80] < 0.35
    # Monotone trade-off and the 600 MHz bound dominates.
    floors = sorted(result.reduction, reverse=True)
    reductions = [result.reduction[f] for f in floors]
    savings = [result.savings[f] for f in floors]
    assert reductions == sorted(reductions)
    assert savings == sorted(savings)
    assert result.bound_savings >= savings[-1] - 0.02
