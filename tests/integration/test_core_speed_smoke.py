"""CI core-speed smoke: the digest-equivalence gate plus a relaxed floor.

Gated behind ``REPRO_SPEED_SMOKE=1`` (a dedicated CI matrix entry): it
runs the Fig. 9-sized campaign (312 cells) twice -- scalar loop and
fused kernel -- which is slower than the unit suite.  Per-cell
digests must match bit for bit everywhere; the throughput bar is the
relaxed >= 3x floor suitable for the shared 1-CPU runner (the full
>= 10x bar lives in ``benchmarks/test_core_speed.py``).  The measured
record is archived as ``BENCH_core_speed.json`` either way.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments import core_speed

pytestmark = pytest.mark.skipif(
    not os.environ.get("REPRO_SPEED_SMOKE"),
    reason="set REPRO_SPEED_SMOKE=1 to run the core-speed smoke",
)

RESULTS_DIR = Path(__file__).parents[2] / "benchmarks" / "results"


def test_campaign_digest_equivalence_and_floor():
    """312 suite cells, scalar vs batched: identical and >= 3x faster."""
    record = core_speed.campaign(scale=1.0)
    record["floor"] = 3.0
    record["smoke"] = True
    record["cpus"] = os.cpu_count() or 1

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_core_speed.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )

    assert record["bit_identical"] is True
    assert record["speedup"] >= record["floor"], record
