"""The fused-loop contract: the kernel reproduces the scalar loop's runs.

Every single-core run takes :func:`repro.core.blockloop.run_fast`.  The
scalar reference loop it replaced (one ``Machine.step`` per tick) is
kept as data: ``golden_loop.json`` holds the float-exact
:func:`run_result_digest` (every trace row, meter sample and energy
accumulator) of each cell in :mod:`.golden_cells`, recorded on that
loop.  The kernel must reproduce every digest bit for bit, also when a
plan resumes from a result store.
"""

from __future__ import annotations

import pytest

from repro.checkpoint import run_result_digest
from repro.exec import execute_cell
from repro.telemetry import TelemetryRecorder

from .golden_cells import (
    CELLS,
    GOVERNORS,
    LAST_TRANSITION,
    checkpointed,
    load_fixture,
)

GOLDEN = load_fixture()

CASES = sorted(key for key in CELLS if key.startswith("case/"))
MULTICORE = sorted(key for key in CELLS if key.startswith("multicore/"))


def _check(key):
    assert run_result_digest(CELLS[key]()) == GOLDEN["cells"][key]


@pytest.mark.parametrize("name", sorted(GOVERNORS))
@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("adapt", [False, True], ids=["frozen", "adapt"])
def test_fast_loop_digest_matches_scalar(name, faults, adapt):
    _check(
        f"matrix/{name}/{'faults' if faults else 'clean'}/"
        f"{'adapt' if adapt else 'frozen'}"
    )


@pytest.mark.parametrize(
    "key", CASES, ids=[key.split("/", 1)[1] for key in CASES]
)
def test_case_digest_matches_scalar(key):
    """Each configuration the kernel once refused (thermal machines,
    throttling, the oracle, schedules, multiplexed counters, measured
    power, resilience under every fault family) runs on the kernel and
    reproduces the scalar loop's digest."""
    _check(key)


@pytest.mark.parametrize(
    "key", MULTICORE, ids=[key.split("/", 1)[1] for key in MULTICORE]
)
def test_multicore_digest_matches_lockstep_loop(key):
    """A ``threads > 1`` cell runs as per-core lanes of the kernel and
    reproduces the digest of the lock-step multicore loop (one
    ``Machine.step`` per core per tick) it replaced."""
    _check(key)


def test_fixture_covers_every_cell():
    assert set(GOLDEN["cells"]) == set(CELLS)


# -- kill / resume between cells ---------------------------------------------


def test_resume_plan_matches_scalar(tmp_path):
    digests, replayed = checkpointed(tmp_path / "j")
    assert replayed == 0
    assert digests == GOLDEN["resume"]


def test_last_decision_transition_adds_no_empty_residency():
    """A p-state entered on the run's last decision never runs a tick,
    so it gets no residency entry (not even 0.0 at the exit sync)."""
    cell, config = LAST_TRANSITION
    recorder = TelemetryRecorder()
    transitions = []
    recorder.bus.subscribe(
        lambda e: transitions.append(e) if e.kind == "transition" else None
    )
    result = execute_cell(cell, config, telemetry=recorder)
    # The case under test: this cell's last decision moves it to a
    # state it has not run at.
    assert transitions[-1].time_s == result.duration_s
    assert transitions[-1].to_mhz not in result.residency_s
    assert run_result_digest(result) == (
        GOLDEN["cells"]["case/last-transition"]
    )
