"""Pickle round-trips for every stateful component a node snapshot carries.

A fleet node snapshot (:meth:`repro.fleet.controller._Node.snapshot`)
is one pickle of the node's machine, meter, sampler and governor; these
tests pin down each component's contribution in isolation, so a
pickling regression names the culprit instead of failing a whole-fleet
comparison.
"""

from __future__ import annotations

import pickle

from repro.core.governors.performance_maximizer import PerformanceMaximizer
from repro.core.models.power import LinearPowerModel
from repro.core.sampling import CounterSampler
from repro.platform.machine import Machine, MachineConfig
from repro.workloads.registry import default_registry


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _run_some_ticks(machine, governor, ticks=30):
    sampler = CounterSampler(machine.pmu, governor.events)
    sampler.start()
    for _ in range(ticks):
        if machine.finished:
            break
        record = machine.step()
        sample = sampler.sample(record.duration_s)
        target = governor.decide(sample, machine.current_pstate)
        if target != machine.current_pstate:
            machine.speedstep.set_pstate(target)
    return sampler


def test_governor_hysteresis_survives_pickling():
    machine = Machine(MachineConfig(seed=4))
    governor = PerformanceMaximizer(
        machine.config.table, LinearPowerModel.paper_model(), 13.0
    )
    governor.reset()
    machine.load(default_registry().get("ammp").scaled(0.2))
    _run_some_ticks(machine, governor)
    clone = _round_trip(governor)
    # Raise-hysteresis internals carried over exactly.
    assert clone.__dict__.keys() == governor.__dict__.keys()
    assert clone._raise_streak == governor._raise_streak
    assert clone._pending_raise == governor._pending_raise
    assert clone.power_limit_w == governor.power_limit_w


def test_machine_and_workload_cursor_survive_pickling():
    machine = Machine(MachineConfig(seed=4))
    machine.load(default_registry().get("mcf").scaled(0.6))
    for _ in range(25):
        machine.step()
    assert not machine.finished
    clone = _round_trip(machine)
    assert clone.now_s == machine.now_s
    # The two must step identically from here: same phase position,
    # same RNG stream state.
    for _ in range(10):
        if machine.finished:
            break
        original = machine.step()
        copied = clone.step()
        assert copied.instructions == original.instructions
        assert copied.mean_power_w == original.mean_power_w


def test_sampler_keeps_counters_across_pickling():
    machine = Machine(MachineConfig(seed=4))
    governor = PerformanceMaximizer(
        machine.config.table, LinearPowerModel.paper_model(), 13.0
    )
    governor.reset()
    machine.load(default_registry().get("ammp").scaled(0.2))
    sampler = _run_some_ticks(machine, governor)
    clone = _round_trip(sampler)
    # Counter accumulation state survives (same events, same deltas on
    # the next sample when driven by the cloned machine).
    assert clone.events == sampler.events
    assert clone.last_sample == sampler.last_sample
