"""Integration tests: every figure experiment runs and shows the paper's
qualitative shape (fast, reduced-scale configurations).

The full-scale quantitative comparison against the paper lives in the
benchmark harness (benchmarks/) and EXPERIMENTS.md; these tests protect
the *shape criteria* of DESIGN.md §4 in CI time.
"""

import pytest

from repro.experiments import ExperimentConfig, run_section
from repro.experiments import (
    fig1_power_variation,
    fig2_pstate_impact,
    fig5_pm_trace,
    fig6_perf_vs_limit,
    fig7_pm_speedup,
    fig8_ps_trace,
    fig9_ps_suite,
    fig10_ps_energy,
    fig11_ps_perf,
    table2_power_model,
    table3_worst_case,
    table4_static_freq,
)

FAST = ExperimentConfig(scale=0.12)


@pytest.fixture(scope="module")
def fig1():
    return run_section(fig1_power_variation, FAST)


@pytest.fixture(scope="module")
def fig6():
    return run_section(
        fig6_perf_vs_limit, FAST, limits=(17.5, 13.5, 10.5)
    )


@pytest.fixture(scope="module")
def fig7():
    return run_section(fig7_pm_speedup, FAST)


@pytest.fixture(scope="module")
def fig9():
    return run_section(fig9_ps_suite, FAST, floors=(0.8, 0.4))


@pytest.fixture(scope="module")
def fig11():
    return run_section(fig11_ps_perf, FAST, floors=(0.8,))


class TestFig1:
    def test_wide_power_spread(self, fig1):
        # The motivating observation: large workload-to-workload power
        # variation at a fixed p-state.
        assert fig1.spread_w > 3.5

    def test_high_power_group_on_top(self, fig1):
        ranked = sorted(
            fig1.summaries, key=lambda n: fig1.summaries[n].mean, reverse=True
        )
        assert set(ranked[:2]) == {"crafty", "perlbmk"}

    def test_memory_bound_at_bottom(self, fig1):
        ranked = sorted(fig1.summaries, key=lambda n: fig1.summaries[n].mean)
        assert set(ranked[:3]) <= {"mcf", "art", "swim", "equake", "lucas"}

    def test_render(self, fig1):
        out = fig1_power_variation.render(fig1)
        assert "crafty" in out and "peak" in out


class TestFig2:
    def test_swim_flat_gap_between_sixtrack_linear(self):
        result = run_section(fig2_pstate_impact, FAST)
        swim = result.frequency_sensitivity("swim")
        gap = result.frequency_sensitivity("gap")
        sixtrack = result.frequency_sensitivity("sixtrack")
        assert swim < 1.05
        assert sixtrack > 1.22
        assert swim < gap < sixtrack
        assert "Fig. 2" in fig2_pstate_impact.render(result)


class TestTables:
    def test_table2_deviation_bounded(self):
        result = run_section(table2_power_model, ExperimentConfig())
        assert result.max_deviation < 0.25
        assert "Table II" in table2_power_model.render(result)

    def test_table3_shape(self):
        result = run_section(
            table3_worst_case, ExperimentConfig(scale=1.0)
        )
        powers = [result.measured_w[f] for f in sorted(result.measured_w)]
        assert powers == sorted(powers)
        assert result.deviation(2000.0) < 0.05
        assert "Table III" in table3_worst_case.render(result)

    def test_table4_matches_paper(self):
        result = run_section(table4_static_freq, ExperimentConfig())
        assert result.matches_paper
        assert "match" in table4_static_freq.render(result)


class TestFig5:
    def test_pm_trace_shape(self):
        result = run_section(
            fig5_pm_trace, ExperimentConfig(scale=0.4, keep_trace=True)
        )
        unconstrained = result.unconstrained
        tight = result.limited[10.5]
        mid = result.limited[14.5]
        # Tighter limits mean lower mean power and longer runtimes.
        assert tight.mean_power_w < mid.mean_power_w < (
            unconstrained.mean_power_w
        )
        assert tight.duration_s > mid.duration_s > unconstrained.duration_s
        # The governed runs modulate across several p-states (Fig. 5's
        # visible frequency modulation with ammp's phases).
        assert len(mid.residency_s) >= 2
        assert "Fig. 5" in fig5_pm_trace.render(result)


class TestFig6:
    def test_dynamic_beats_or_matches_static(self, fig6):
        for limit in fig6.dynamic_performance:
            assert (
                fig6.dynamic_performance[limit]
                >= fig6.static_performance[limit] - 0.02
            )

    def test_performance_degrades_with_tighter_limits(self, fig6):
        perf = fig6.dynamic_performance
        assert perf[17.5] > perf[13.5] > perf[10.5]

    def test_galgel_is_the_only_material_violator(self, fig6):
        assert set(fig6.violators(0.02)) <= {"galgel"}

    def test_render(self, fig6):
        assert "normalized performance" in fig6_perf_vs_limit.render(fig6)


class TestFig7:
    def test_suite_fraction_in_paper_band(self, fig7):
        # Paper: 86%.  Allow a generous band at reduced scale.
        assert 0.70 <= fig7.achieved_fraction <= 0.95

    def test_ordering_memory_left_core_right(self, fig7):
        order = fig7.sorted_names()
        assert order.index("swim") < order.index("gap") < (
            order.index("sixtrack")
        )

    def test_power_limited_benchmarks_capped(self, fig7):
        # crafty/perlbmk gain little from PM at 17.5 W despite being
        # core-bound (their own power keeps them at 1800).
        for name in ("crafty", "perlbmk"):
            assert fig7.pm_speedup[name] < 1.03
            assert fig7.unconstrained_speedup[name] > 1.08

    def test_memory_bound_has_nothing_to_gain(self, fig7):
        assert fig7.unconstrained_speedup["swim"] < 1.02

    def test_render(self, fig7):
        assert "86%" in fig7_pm_speedup.render(fig7)


class TestFig8:
    def test_ps_respects_floor_and_saves_energy(self):
        result = run_section(
            fig8_ps_trace, ExperimentConfig(scale=0.4, keep_trace=True)
        )
        assert result.reduction < 0.20
        assert result.savings > 0.05
        # PS modulates: memory phases at low frequency, compute high.
        assert min(result.powersave.residency_s) <= 1000.0
        assert max(result.powersave.residency_s) >= 1600.0
        assert "Fig. 8" in fig8_ps_trace.render(result)


class TestFig9:
    def test_floors_respected(self, fig9):
        for floor in fig9.reduction:
            assert fig9.floor_respected(floor)

    def test_tradeoff_monotone(self, fig9):
        assert fig9.reduction[0.4] > fig9.reduction[0.8]
        assert fig9.savings[0.4] > fig9.savings[0.8]

    def test_bound_dominates(self, fig9):
        assert fig9.bound_savings >= fig9.savings[0.4] - 0.02

    def test_render(self, fig9):
        assert "energy savings" in fig9_ps_suite.render(fig9)


class TestFig10:
    def test_memory_bound_saves_most(self):
        result = run_section(fig10_ps_energy, FAST, floors=(0.8,))
        order = result.sorted_names()
        # Memory group concentrated on the high-savings side.
        memory_positions = [
            order.index(n) for n in ("swim", "lucas", "mcf", "applu")
        ]
        core_positions = [
            order.index(n) for n in ("sixtrack", "eon", "crafty", "mesa")
        ]
        assert max(memory_positions) < min(core_positions)
        assert "Fig. 10" in fig10_ps_energy.render(result)


class TestFig11:
    def test_art_and_mcf_violate_with_primary_exponent(self, fig11):
        violators = set(fig11.violations(0.8))
        assert violators == {"art", "mcf"}

    def test_alternative_exponent_repairs_mcf(self, fig11):
        violators = set(fig11.violations(0.8, alternative=True))
        assert "mcf" not in violators
        # art improves but may stay slightly over, as in the paper.
        if "art" in violators:
            assert fig11.reduction_alt[0.8]["art"] < (
                fig11.reduction[0.8]["art"]
            )

    def test_memory_bound_loses_least(self, fig11):
        order = fig11.sorted_names()
        assert order.index("swim") < order.index("sixtrack")
        assert order.index("lucas") < order.index("crafty")

    def test_render(self, fig11):
        assert "violations" in fig11_ps_perf.render(fig11)
