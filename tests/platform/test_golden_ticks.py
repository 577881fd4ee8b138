"""The tick kernel reproduces the frozen per-tick machine physics.

``golden_ticks.json`` holds, tick by tick, what the machine simulator's
own stepping produced (end time, true mean power, instructions, duty,
temperature) for the scenarios of :mod:`.make_golden_ticks`; a
controller run of each scenario must reproduce it bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from .make_golden_ticks import SCENARIOS, ticks

GOLDEN = json.loads((Path(__file__).parent / "golden_ticks.json").read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_kernel_reproduces_frozen_ticks(name):
    assert ticks(name) == GOLDEN["scenarios"][name]


def test_fixture_covers_every_scenario():
    assert set(GOLDEN["scenarios"]) == set(SCENARIOS)
