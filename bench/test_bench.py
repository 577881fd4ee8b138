"""Self-tests of the benchmark's own arithmetic and bookkeeping.

Run with ``python -m pytest bench -q`` (a few seconds; the simulator
itself is not run).
"""

import json
import os
import statistics
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import run  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("outer", 0.0, 10.0, None),
        ("mid", 1.0, 4.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("mid", 5.0, 9.0, 0),
    ]
    table = layers.layer_table(spans)
    assert table["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert table["mid"] == {"calls": 2, "total_s": 7.0, "self_s": 6.0}
    assert table["leaf"]["self_s"] == 1.0


@pytest.fixture
def toy_module():
    """A stand-in layer: ``outer`` calls ``inner`` through its module."""
    module = types.ModuleType("repro_bench_toy")
    exec(
        "def inner(x):\n    return x + 1\n"
        "def outer(x):\n    return inner(x) * 2\n"
        "class Box:\n    def get(self):\n        return outer(1)\n",
        module.__dict__,
    )
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_tracer_records_nested_spans_and_restores(toy_module):
    original = toy_module.inner
    tracer = layers.Tracer()
    tracer.install([
        ("toy.get", "repro_bench_toy:Box.get"),
        ("toy.outer", "repro_bench_toy:outer"),
        ("toy.inner", "repro_bench_toy:inner"),
    ])
    assert toy_module.Box().get() == 4
    tracer.uninstall()
    assert toy_module.inner is original
    names = [span[0] for span in tracer.spans]
    assert names == ["toy.get", "toy.outer", "toy.inner"]
    assert [span[3] for span in tracer.spans] == [None, 0, 1]
    table = tracer.table()
    total = table["toy.get"]["total_s"]
    self_sum = sum(row["self_s"] for row in table.values())
    assert self_sum == pytest.approx(total)


def test_absent_target_is_reported_not_raised(toy_module):
    tracer = layers.Tracer()
    tracer.install([
        ("toy.gone", "repro_bench_toy:vanished"),
        ("toy.gone", "repro_bench_no_such_module:fn"),
        ("toy.inner", "repro_bench_toy:inner"),
    ])
    tracer.uninstall()
    assert set(tracer.absent()) == {"toy.gone"}
    assert len(tracer.absent()["toy.gone"]) == 2


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    q1, q2, q3 = run.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert q2 == statistics.median(values)
    assert run.spread(values) == pytest.approx((q3 - q1) / q2)
    assert run.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_high_percentile_leaves_ten_samples_beyond():
    assert run.high_percentile(range(10)) is None
    percentile, value = run.high_percentile(range(20))
    assert (percentile, value) == (50, 9)
    assert sum(v > value for v in range(20)) == 10
    assert run.high_percentile(range(100)) == (90, 89)


def _pass(digest, attempted=312, failed=0):
    return {"attempted": attempted, "failed": failed,
            "digests": [["plan", digest]]}


def test_perturbed_digest_counts_as_failure():
    golden = {"plan": "a" * 64}
    perturbed = "a" * 63 + "b"
    failed, _ = run.digest_failures([_pass("a" * 64)], golden)
    assert failed == 0
    failed, _ = run.digest_failures(
        [_pass("a" * 64), _pass(perturbed)], golden
    )
    assert failed == 312


def test_unpinned_seed_checks_passes_against_each_other():
    failed, reference = run.digest_failures(
        [_pass("x"), _pass("x"), _pass("y")], None
    )
    assert failed == 312
    assert reference == {"plan": "x"}


def test_raised_pass_and_partial_digest_failures():
    raised = {"attempted": 130, "failed": 130, "error": "Traceback"}
    cycle = {"attempted": 10, "failed": 1,
             "digests": [["plan", "x"], ["plan", "z"]]}
    failed, _ = run.digest_failures([raised, cycle], {"plan": "x"})
    assert failed == 130 + 5


def _child(rss, traced=False):
    record = {"process": {"maxrss_mb": rss}, "setup_s": 1.0,
              "warmup": {"attempted": 26, "failed": 0}}
    timed = dict(_pass("x"), wall_s=0.5, ref_s=0.4, steps=[0.4], cpu_s=0.5,
                 probe_s=0.03, ticks=1000)
    if traced:
        record["traced"] = timed
    else:
        record.update(setup_ref_s=0.9, passes=[timed])
    return record


def test_traced_child_checks_digests_but_moves_no_end_to_end_metric():
    raw = {"children": [_child(60.0), _child(64.0)],
           "tracer": [_child(150.0, traced=True)]}
    samples = run.collect("fig9", raw)
    assert samples["peak_rss_mb"] == 64.0
    assert len(samples["pass_s"]) == len(samples["setup_s"]) == 2
    assert sum(r["attempted"] for r in samples["checked"]) == 3 * (26 + 312)
    assert samples["lost_ops"] == 0
    raw["tracer"] = [{"process": {"maxrss_mb": 1.0}, "error": "killed"}]
    assert run.collect("fig9", raw)["lost_ops"] == 1


def _spec():
    with open(run.SPEC) as handle:
        return json.load(handle)


def test_metric_and_workload_names_are_well_formed():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert run.NAME_RE.fullmatch(name), name
        assert len(name) <= 64
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _synthetic_run():
    # The host ran at half the reference speed: scaled times are halved.
    probe = 2 * run.host.PROBE_REF_S
    samples = run.timings(
        [{"wall_s": w, "ref_s": w / 2} for w in (2.0, 2.2, 2.4)],
        [{"wall_s": w, "ref_s": w / 2, "steps": [w / 4, w / 4], "cpu_s": w,
          "probe_s": probe} for w in (0.8, 1.0, 0.9)],
    )
    samples.update({
        "warmup_s": [0.5, 0.6, 0.7], "peak_rss_mb": 80.0,
        "extra": {"pool_s": [0.2, 0.21, 1.0]},
        "counts": {"campaign_cells": 8, "cached": 6, "restarts": 0},
    })
    trace = {
        "layers": {"controller.run": {"calls": 2, "self_s": 0.1,
                                      "total_s": 0.3},
                   "telemetry.span": {"calls": 7}},
        "host": {"exec.pool": [0.2, 0.1]},
    }
    raw = {"tracer": [{"traced": {"wall_s": 1.2, "ref_s": 0.6}}]}
    imports = {"import.numpy_s": 0.1, "import.repro_s": 0.2}
    return samples, trace, raw, imports


def test_emitted_metrics_equal_benchmark_json():
    spec = _spec()
    samples, trace, raw, imports = _synthetic_run()
    e2e = run.end_to_end(samples)
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert run.END_TO_END[metric["name"]] == (
            metric["unit"], metric["better"]
        )
        assert 0 < metric["bound"] <= 0.25
    setup_bound = [m["bound"] for m in spec["end_to_end"]
                   if m["name"] == "setup_s"]
    assert setup_bound == [max(m["bound"] for m in spec["end_to_end"])]

    layer = run.per_layer("fig9", samples, trace, imports, raw)
    line = run.final_line(
        {"fig9": {"attempted": 1, "failed": 0, "per_layer": layer}},
        trace=True,
    )
    emitted = line["metrics"]
    assert set(emitted) == {m["name"] for m in spec["per_layer"]}
    for metric in spec["per_layer"]:
        assert emitted[metric["name"]]["unit"] == metric["unit"]
    assert emitted["controller.run.self_pct"]["value"] == pytest.approx(
        100 * 0.1 / 1.2
    )
    assert emitted["platform.step.self_pct"]["value"] == 0.0
    assert "telemetry.span.self_pct" not in emitted
    assert emitted["campaign.hit_ratio"]["value"] == 0.75
    assert emitted["exec.pool.slow_runs"]["value"] == 1
    assert emitted["trace.overhead"]["value"] == pytest.approx(0.6 / 0.45)
    assert emitted["host.setup_s"]["value"] == pytest.approx(2.2)
    assert emitted["host.idle_s"]["value"] == pytest.approx(
        run.host.nproc() * 0.9 - 0.9
    )
    assert run.end_to_end(samples)["pass_s"] == pytest.approx(0.45)

    line = run.final_line(
        {"fig9": {"attempted": 3, "failed": 0, "end_to_end": e2e}},
        trace=False,
    )
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert set(line["metrics"]) == set(e2e)


def test_median_pass_drops_a_burst_in_one_step():
    # Every pass caught a slow step somewhere: whole-pass medians keep
    # the burst, per-step medians do not.
    passes = [[3.0, 1.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0, 3.0]]
    assert statistics.median(map(sum, passes)) == 5.0
    assert run.median_pass(passes) == 3.0
    assert run.median_pass([[0.4], [0.5], [0.3]]) == 0.4


def test_segments_split_a_process_at_its_probes():
    ref = run.host.PROBE_REF_S
    # Parent probes of 0.1 s around a process from t=0 to t=10 that
    # probed for 0.3 s at t=4.
    walls, scaled = run.host.segments(0.0, 10.0, 0.1, 0.1, [(4.0, 4.3)])
    assert walls == pytest.approx([4.0, 5.7])
    assert scaled == pytest.approx([4.0 * ref / 0.2, 5.7 * ref / 0.2])
    walls, scaled = run.host.segments(0.0, 2.0, 0.1, 0.3, [])
    assert walls == [2.0]
    assert scaled == pytest.approx([2.0 * ref / 0.2])


def test_steps_scale_each_step_by_its_bracketing_probes(monkeypatch):
    probes = iter([0.1, 0.3, 0.2])
    monkeypatch.setattr(run.host, "probe_s", lambda: next(probes))
    steps = run.host.Steps()
    for _ in range(2):
        with steps.step():
            pass
    steps.walls = [1.0, 2.0]
    ref = run.host.PROBE_REF_S
    assert steps.scaled() == pytest.approx([ref / 0.2, 2.0 * ref / 0.25])


def test_report_timing_lines_do_not_change_the_report_digest(tmp_path):
    one = tmp_path / "one.md"
    two = tmp_path / "two.md"
    one.write_text("## Fig. 1\n\n```\nrows\n```\n_0.2 s_\n")
    two.write_text("## Fig. 1\n\n```\nrows\n```\n_13.7 s_\n")
    assert run.cli_digest("report", one) == run.cli_digest("report", two)
    two.write_text("## Fig. 1\n\n```\nrowz\n```\n_13.7 s_\n")
    assert run.cli_digest("report", one) != run.cli_digest("report", two)


def test_golden_pins_seeds_zero_and_one_for_every_workload():
    golden = run.load_golden()
    for workload in run.WORKLOADS:
        assert {"0", "1"} <= set(golden[workload]), workload
