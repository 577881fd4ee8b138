"""Regenerate ``golden_ticks.json``: per-tick machine physics, frozen.

Run from the repository root::

    PYTHONPATH=src python -m tests.platform.make_golden_ticks [OUT_DIR]

Each scenario of :data:`SCENARIOS` runs a workload on a machine at a
pinned p-state, optionally moving the p-state or the clock-modulation
duty after a given tick, and records every tick's end time, true mean
power, retired instructions, duty and junction temperature (None on an
isothermal machine).  It writes ``OUT_DIR/golden_ticks.json`` (default:
next to this file); ``parent_commit`` stamps the commit the working
tree was checked out at.

The committed fixture was recorded from ``Machine.step``, the per-tick
machine simulator the fused kernel was built to mirror, before that
copy of the physics was deleted.  This generator now runs the scenarios
through ``PowerManagementController`` (the kernel).  To audit, write to
a scratch directory and compare: only the ``source`` and
``parent_commit`` stamps may differ.  Overwrite the committed fixture
only with a deliberate change to the tick physics, in the same commit,
and record why in ``CHANGES.md``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.core.controller import PowerManagementController
from repro.core.governors.unconstrained import EventProbe
from repro.platform.events import Event
from repro.platform.leakage import LeakageModel
from repro.platform.machine import Machine, MachineConfig
from repro.platform.power import PowerModelConstants
from repro.platform.thermal import ThermalModel

from tests.conftest import JITTERY, TINY_CORE, TWO_PHASE

SOURCE = "repro.core.blockloop.run_fast in the tree at parent_commit"

#: A package that heats up within a second and prices leakage hot.
HOT = MachineConfig(
    seed=0,
    power=PowerModelConstants(
        leakage=LeakageModel(0.81, theta_per_kelvin=0.012, t_ref_celsius=60.0)
    ),
    thermal=ThermalModel(
        r_th_c_per_w=2.6, c_th_j_per_c=0.6, t_ambient_c=60.0,
        t_junction_max_c=95.0,
    ),
)

#: name -> (machine config, workload, initial MHz, {tick: (knob, value)}):
#: after tick ``tick`` (1-based) the p-state ("mhz") or the duty cycle
#: ("duty") is set to ``value``.
SCENARIOS = {
    "tiny-core": (MachineConfig(seed=42), TINY_CORE, 2000.0, {}),
    "two-phase": (MachineConfig(seed=42), TWO_PHASE, 2000.0, {}),
    "hot-thermal": (HOT, TINY_CORE.scaled(40.0), 2000.0, {}),
    "duty-0.5": (
        MachineConfig(seed=1), TINY_CORE.scaled(4.0), 2000.0,
        {1: ("duty", 0.5)},
    ),
    "transition-600": (
        MachineConfig(seed=42), TINY_CORE, 2000.0, {1: ("mhz", 600.0)},
    ),
    "jitter-seed7": (
        MachineConfig(seed=7), JITTERY.scaled(10.0), 2000.0, {},
    ),
    "jitter-seed8": (
        MachineConfig(seed=8), JITTERY.scaled(10.0), 2000.0, {},
    ),
}

#: The recorded per-tick columns.
COLUMNS = ("time_s", "power_w", "instructions", "duty", "temperature_c")


class ScriptedProbe(EventProbe):
    """A pinned p-state that turns one knob of ``script`` after a tick.

    ``script`` maps a 1-based tick number to ``("mhz", frequency)`` or
    ``("duty", duty)``: the decision after that tick moves the p-state
    or sets the clock-modulation duty through ``machine``'s throttle.
    """

    def __init__(self, machine: Machine, frequency_mhz: float, script):
        super().__init__(
            machine.config.table, frequency_mhz, (Event.INST_RETIRED,)
        )
        self._throttle = machine.throttle
        self._script = script
        self._ticks = 0

    def decide(self, sample, current):
        self._ticks += 1
        knob, value = self._script.get(self._ticks, (None, None))
        if knob == "mhz":
            self._pstate = self.table.by_frequency(value)
        elif knob == "duty":
            self._throttle.set_duty(value)
        return self._pstate


def probe_run(
    machine: Machine, workload, frequency_mhz: float = 2000.0,
    script=None, **run,
):
    """Run ``workload`` on ``machine`` from ``frequency_mhz`` under a
    :class:`ScriptedProbe` (``script`` default: none) and return the
    :class:`~repro.core.controller.RunResult`; ``run`` passes
    ``until_s`` / ``max_seconds`` to the controller's ``run``."""
    probe = ScriptedProbe(machine, frequency_mhz, script or {})
    return PowerManagementController(machine, probe).run(
        workload,
        initial_pstate=machine.config.table.by_frequency(frequency_mhz),
        **run,
    )


def ticks(name: str) -> dict:
    """Scenario ``name``'s per-tick columns, from a controller run."""
    config, workload, mhz, script = SCENARIOS[name]
    result = probe_run(Machine(config), workload, mhz, script)
    return {
        column: [getattr(row, field) for row in result.trace]
        for column, field in zip(COLUMNS, (
            "time_s", "true_power_w", "instructions", "duty",
            "temperature_c",
        ))
    }


def build() -> dict:
    """The fixture."""
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
        check=True, cwd=Path(__file__).parent,
    ).stdout.strip()
    return {
        "parent_commit": commit,
        "scenarios": {name: ticks(name) for name in SCENARIOS},
        "source": SOURCE,
    }


def main(argv: list[str]) -> None:
    out = Path(argv[0]) if argv else Path(__file__).parent
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "golden_ticks.json", "w") as handle:
        json.dump(build(), handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
