"""Benchmark: per-sample power-model accuracy (the paper's §II claim).

Not a numbered figure, but a stated contribution: the models target
per-*sample* accuracy for tight runtime control.  This bench quantifies
it across the suite and pins the two properties the solutions rely on:
the error is guardband-sized, and galgel is the one hot outlier.
"""

from conftest import publish

from repro.experiments import model_accuracy, run_section


def test_model_accuracy(benchmark, bench_config, results_dir):
    result = benchmark.pedantic(
        lambda: run_section(model_accuracy, bench_config),
        rounds=1,
        iterations=1,
    )
    publish(results_dir, "model_accuracy", model_accuracy.render(result))
    assert result.suite_mae_w < 1.0          # guardband-sized error
    assert result.suite_p95_w < 2.0
    worst = result.worst_underestimated()
    assert worst.workload == "galgel"        # the violation mechanism
    assert worst.bias_w > 0.3
