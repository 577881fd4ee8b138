"""Benchmark: the MS-Loops footprint sweep (hierarchy characterization).

Regenerates the characterization the paper's Table I microbenchmarks
were designed around: latency and bandwidth plateaus at L1, L2 and DRAM
footprints.
"""

from conftest import publish

from repro.experiments import hierarchy_probe, run_section
from repro.exec import ExperimentConfig


def test_hierarchy_probe(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: run_section(hierarchy_probe, ExperimentConfig(scale=0.3)),
        rounds=1, iterations=1,
    )
    publish(results_dir, "hierarchy_probe", hierarchy_probe.render(result))
    plateaus = result.latency_plateaus_ns()
    assert plateaus["L1"] < plateaus["L2"] < plateaus["DRAM"]
    assert plateaus["DRAM"] > 90.0
