"""Package p-state actuation: one request retunes every core."""

from __future__ import annotations

import pytest

from repro.drivers.speedstep import DomainSpeedStepDriver
from repro.errors import DriverError
from repro.multicore.machine import MulticoreConfig, MulticoreMachine


def test_package_domain_actuates_all_cores_together():
    machine = MulticoreMachine(MulticoreConfig(n_cores=4))
    table = machine.config.machine.table
    result = machine.speedstep.set_pstate(table.slowest)
    assert result.changed
    assert all(
        core.current_pstate == table.slowest for core in machine.cores
    )
    assert machine.speedstep.current_pstate == table.slowest
    assert machine.dvfs.transition_count == 4


def test_set_frequency_routes_through_domain():
    machine = MulticoreMachine(MulticoreConfig(n_cores=2))
    machine.speedstep.set_frequency(1000.0)
    assert all(
        core.current_pstate.frequency_mhz == 1000.0 for core in machine.cores
    )


def test_package_dead_time_stalls_every_core():
    machine = MulticoreMachine(MulticoreConfig(n_cores=2))
    machine.dvfs.charge_dead_time(1e-3)
    assert [core.dvfs.total_dead_time_s for core in machine.cores] == [
        1e-3, 1e-3,
    ]


def test_empty_domain_rejected():
    with pytest.raises(DriverError, match="at least one core"):
        DomainSpeedStepDriver([])
