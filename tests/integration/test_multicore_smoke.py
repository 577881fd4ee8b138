"""Multicore smoke: the 2-core ``experiment multicore`` end-to-end.

Runs the full projection-breakdown + energy-optimal-grid pipeline on
the short (1, 2)-core sweep (~40 multicore runs, well under a second).
"""

from __future__ import annotations

import json

from repro.exec.plan import ExperimentConfig
from repro.experiments import multicore_scaling


def test_multicore_experiment_end_to_end():
    """The 2-core sweep finds the memory-family projection break."""
    data = multicore_scaling.run(ExperimentConfig(scale=0.05, seed=0))
    assert data["core_counts"] == [1, 2]
    # All three families report a measured and a predicted optimum.
    assert set(data["energy_optimal"]) == {"core", "mixed", "memory"}
    for entry in data["energy_optimal"].values():
        assert entry["measured"]["threads"] >= 1
        assert entry["predicted"]["threads"] >= 1
        assert len(entry["grid"]) == 2 * len(data["grid_frequencies_mhz"])
    # Contention breaks the single-core projection for memory-bound
    # work as soon as a co-runner shares the bus...
    assert data["break_points"]["memory"] == 2
    # ...while core-bound work stays projectable at any core count.
    assert data["break_points"]["core"] is None
    # The payload is archivable (BENCH_multicore.json shape).
    assert json.loads(json.dumps(dict(data)))
    assert "break points" in multicore_scaling.render(data)
