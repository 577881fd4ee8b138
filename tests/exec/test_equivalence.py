"""Serial vs parallel execution must be bit-identical, cell for cell.

The acceptance property of the parallel engine: per-cell machine seeds
derive only from plan data (``config.seed + cell.seed_offset``), so the
same plan run with any worker count yields float-exact RunResults.  The
comparison uses :func:`run_result_digest`, the same float-exact digest
the chaos kill/resume harness trusts across processes.  Resumed and
observed runs of the plan must match it too.
"""

from __future__ import annotations

import pytest

from repro.adaptation.manager import AdaptationConfig
from repro.campaign.store import ResultStore
from repro.checkpoint.digest import run_result_digest
from repro.exec.plan import (
    ExperimentConfig,
    GovernorSpec,
    RunCell,
    RunPlan,
)
from repro.exec.session import open_session
from repro.faults import FaultPlan

from tests.core.golden_cells import cut

#: Small but non-trivial: five cells over three workloads and four
#: governor families, with a non-zero seed offset and a faulted,
#: adapted two-core cell (the ``threads`` axis) in the mix.
CELLS = (
    RunCell(workload="ammp", governor=GovernorSpec.pm(
        14.5, power_model="paper"
    )),
    RunCell(workload="mcf", governor=GovernorSpec.ps(0.8)),
    RunCell(workload="ammp", governor=GovernorSpec.fixed(1600.0),
            seed_offset=100, rep=1),
    RunCell(workload="mcf", governor=GovernorSpec.dbs()),
    RunCell(
        workload="swim",
        governor=GovernorSpec.energy_optimal(power_model="paper"),
        threads=2,
        fault_plan=FaultPlan.from_dict({
            "seed": 0, "sample": {"drop_prob": 0.08},
            "transition": {"fail_prob": 0.4},
        }),
        adaptation=AdaptationConfig(),
    ),
)

CONFIG = ExperimentConfig(scale=0.05, seed=3)


def _serial_digests():
    with open_session() as session:
        results = session.run_cells(CELLS, CONFIG)
    return [run_result_digest(result) for result in results]


@pytest.fixture(scope="module")
def serial_digests():
    return _serial_digests()


def test_serial_is_deterministic(serial_digests):
    assert _serial_digests() == serial_digests


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_parallel_matches_serial(serial_digests, workers):
    with open_session(workers=workers) as session:
        results = session.run_cells(CELLS, CONFIG)
    assert [run_result_digest(r) for r in results] == serial_digests
    runner = session.last_runner
    assert runner is not None
    assert runner.restarts == 0
    assert runner.rescheduled == 0


def test_plan_json_round_trip_preserves_results(serial_digests):
    plan = RunPlan(config=CONFIG, cells=CELLS)
    clone = RunPlan.from_json(plan.to_json())
    with open_session(workers=2) as session:
        results = session.run_plan(clone)
    assert [run_result_digest(r) for r in results] == serial_digests


def test_resumed_plan_matches_serial(serial_digests, tmp_path):
    """Cut the results log before the two-core cell; the resume serves
    the stored cells and reruns the rest bit-identically."""
    plan = RunPlan(config=CONFIG, cells=CELLS)
    with ResultStore(tmp_path / "ckpt") as store, open_session(
        store=store
    ) as session:
        session.run_plan(plan)
    cut(tmp_path / "ckpt", len(CELLS) - 2)
    with ResultStore(tmp_path / "ckpt", create=False) as store, open_session(
        store=store
    ) as session:
        results = session.run_plan(plan)
    assert store.hits == len(CELLS) - 2
    assert [run_result_digest(r) for r in results] == serial_digests


def test_observed_plan_matches_serial(serial_digests, tmp_path):
    with open_session(telemetry_dir=tmp_path / "tel") as session:
        results = session.run_cells(CELLS, CONFIG)
    assert [run_result_digest(r) for r in results] == serial_digests
