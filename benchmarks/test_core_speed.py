"""Benchmark: fused tick kernel throughput on a Fig. 9-sized campaign.

Runs the full Fig. 9 campaign shape -- the 26-workload SPEC suite at
the paper's four PS floors, three median-protocol reps each (312
cells) -- under the scalar per-tick loop and the fused kernel,
demands bit-identical per-cell digests, and archives both throughput
numbers as ``BENCH_core_speed.json``.  Only the
monitor->estimate->control loop is on the clock (setup and digesting
are identical either way), so the ratio is tick throughput, the number
that bounds campaign wall time.

The >= 10x throughput bar applies on dedicated hosts; under
``REPRO_SPEED_SMOKE=1`` (the shared 1-CPU CI runner) the floor relaxes
to >= 3x -- the numbers are still recorded there, honestly labelled.
"""

import json
import os

from conftest import bench_scale, publish

from repro.experiments import core_speed

#: Throughput floors: dedicated host vs the shared 1-CPU CI runner.
LOCAL_FLOOR = 10.0
SMOKE_FLOOR = 3.0


def test_core_speed_campaign(benchmark, results_dir):
    record = benchmark.pedantic(
        lambda: core_speed.campaign(scale=bench_scale(1.0)),
        rounds=1,
        iterations=1,
    )

    smoke = bool(os.environ.get("REPRO_SPEED_SMOKE"))
    record["floor"] = SMOKE_FLOOR if smoke else LOCAL_FLOOR
    record["smoke"] = smoke
    record["cpus"] = os.cpu_count() or 1
    (results_dir / "BENCH_core_speed.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    publish(
        results_dir,
        "core_speed_campaign",
        "\n".join(f"{key:18} {value}" for key, value in record.items()),
    )

    assert record["bit_identical"] is True
    assert record["speedup"] >= record["floor"], record
