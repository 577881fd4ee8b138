"""Tests for the assembled machine simulator.

A machine holds the platform's state; time advances only inside a
controller run (the tick kernel).  These tests drive it through
:func:`~tests.platform.make_golden_ticks.probe_run`: a pinned p-state,
optionally a knob turned after a tick, and a simulated-time horizon.
"""

import pytest

from repro.errors import ExperimentError, WorkloadError
from repro.platform.events import Event
from repro.platform.machine import Machine, MachineConfig

from tests.conftest import JITTERY

from .make_golden_ticks import probe_run


def _durations(result):
    """Each tick's duration, from the trace's tick-end times."""
    ends = [row.time_s for row in result.trace]
    return [end - start for start, end in zip([0.0] + ends, ends)]


class TestLifecycle:
    def test_state_without_workload_raises(self, machine):
        with pytest.raises(WorkloadError):
            machine.finished
        with pytest.raises(WorkloadError):
            machine.peek_rates()

    def test_load_resets_time(self, machine, tiny_core_workload):
        probe_run(machine, tiny_core_workload, until_s=0.01)
        assert machine.now_s > 0
        machine.load(tiny_core_workload)
        assert machine.now_s == 0.0
        assert machine.retired_instructions == 0.0

    def test_horizon_past_completion_ends_at_completion(
        self, tiny_core_workload
    ):
        complete = probe_run(Machine(MachineConfig(seed=42)),
                             tiny_core_workload)
        machine = Machine(MachineConfig(seed=42))
        bounded = probe_run(machine, tiny_core_workload, until_s=10.0)
        assert machine.finished
        assert bounded.duration_s == complete.duration_s < 10.0
        assert len(bounded.trace) == len(complete.trace)

    def test_run_to_completion_retires_full_budget(
        self, machine, tiny_core_workload
    ):
        probe_run(machine, tiny_core_workload)
        assert machine.retired_instructions == pytest.approx(
            tiny_core_workload.total_instructions
        )

    def test_runaway_guard(self, machine, tiny_core_workload):
        with pytest.raises(ExperimentError, match="exceeded 0.0s"):
            probe_run(machine, tiny_core_workload, max_seconds=0.0)


class TestHorizon:
    def test_stops_at_first_tick_end_at_or_past_horizon(
        self, machine, tiny_core_workload
    ):
        workload = tiny_core_workload.scaled(10.0)
        result = probe_run(machine, workload, until_s=0.025)
        # Ticks end at 0.01, 0.02, 0.03: the third is the first at or
        # past the horizon.
        assert len(result.trace) == 3
        assert result.duration_s == machine.now_s == result.trace[-1].time_s
        assert machine.now_s >= 0.025
        assert not machine.finished
        assert result.instructions == pytest.approx(
            sum(row.instructions for row in result.trace)
        )
        assert result.instructions < workload.total_instructions

    def test_horizon_on_a_tick_end_stops_there(
        self, machine, tiny_core_workload
    ):
        result = probe_run(
            machine, tiny_core_workload.scaled(10.0), until_s=0.01
        )
        assert [row.time_s for row in result.trace] == [0.01]
        assert not machine.finished

    def test_horizon_keeps_the_bounded_ticks_of_a_full_run(
        self, tiny_core_workload
    ):
        workload = tiny_core_workload.scaled(10.0)
        full = probe_run(Machine(MachineConfig(seed=42)), workload)
        bounded = probe_run(
            Machine(MachineConfig(seed=42)), workload, until_s=0.05
        )
        assert bounded.trace == full.trace[: len(bounded.trace)]
        assert bounded.samples == full.samples[: len(bounded.samples)]

    def test_max_seconds_before_horizon_still_raises(
        self, machine, tiny_core_workload
    ):
        with pytest.raises(ExperimentError, match="exceeded 0.015s"):
            probe_run(
                machine, tiny_core_workload.scaled(10.0),
                max_seconds=0.015, until_s=0.1,
            )
        # The guard fired at the first tick start past max_seconds.
        assert machine.now_s == pytest.approx(0.02)

    def test_horizon_before_max_seconds_ends_cleanly(
        self, machine, tiny_core_workload
    ):
        result = probe_run(
            machine, tiny_core_workload.scaled(10.0),
            max_seconds=0.015, until_s=0.015,
        )
        assert result.duration_s == pytest.approx(0.02)


class TestTiming:
    def test_tick_duration_matches_config(self, machine, tiny_core_workload):
        result = probe_run(machine, tiny_core_workload, until_s=0.01)
        assert _durations(result)[0] == pytest.approx(machine.config.tick_s)

    def test_final_tick_is_short(self, machine, tiny_core_workload):
        result = probe_run(machine, tiny_core_workload)
        assert _durations(result)[-1] <= machine.config.tick_s + 1e-12

    def test_core_bound_time_halves_at_double_frequency(
        self, tiny_core_workload
    ):
        fast = Machine(MachineConfig(seed=1))
        probe_run(fast, tiny_core_workload, 2000.0)
        slow = Machine(MachineConfig(seed=1))
        probe_run(slow, tiny_core_workload, 1000.0)
        assert slow.now_s == pytest.approx(2 * fast.now_s, rel=0.01)

    def test_memory_bound_time_barely_changes(self, tiny_memory_workload):
        fast = Machine(MachineConfig(seed=1))
        probe_run(fast, tiny_memory_workload, 2000.0)
        slow = Machine(MachineConfig(seed=1))
        probe_run(slow, tiny_memory_workload, 1000.0)
        assert slow.now_s < 1.5 * fast.now_s


def _phase_sequence(result):
    """The tick-by-tick phase, told apart by sampled IPC: compute ticks
    retire faster than the midpoint of the run's IPC range."""
    ipc = [row.rates[Event.INST_RETIRED] for row in result.trace]
    middle = (max(ipc) + min(ipc)) / 2
    return ["compute" if value > middle else "memory" for value in ipc]


class TestPhases:
    def test_phase_boundaries_split_ticks_exactly(
        self, machine, two_phase_workload
    ):
        result = probe_run(machine, two_phase_workload)
        assert set(_phase_sequence(result)) == {"compute", "memory"}
        assert machine.retired_instructions == pytest.approx(
            two_phase_workload.total_instructions
        )
        assert sum(row.instructions for row in result.trace) == (
            pytest.approx(two_phase_workload.total_instructions)
        )

    def test_phase_cycle_repeats(self, machine, two_phase_workload):
        sequence = []
        for phase in _phase_sequence(probe_run(machine, two_phase_workload)):
            if not sequence or sequence[-1] != phase:
                sequence.append(phase)
        # three repeats of compute -> memory
        assert sequence == ["compute", "memory"] * 3


class TestPowerAndCounters:
    def test_power_sink_receives_all_time(self, machine, tiny_core_workload):
        total = []
        machine.add_power_sink(lambda w, dt: total.append((w, dt)))
        probe_run(machine, tiny_core_workload)
        fed = sum(dt for _, dt in total)
        assert fed == pytest.approx(machine.now_s)
        assert all(w > 0 for w, _ in total)

    def test_energy_equals_power_times_time(self, machine, tiny_core_workload):
        result = probe_run(machine, tiny_core_workload)
        energy = sum(
            row.true_power_w * duration
            for row, duration in zip(result.trace, _durations(result))
        )
        assert result.true_energy_j == pytest.approx(energy, rel=1e-9)

    def test_pmu_counts_cycles(self, machine, tiny_core_workload):
        # The probe's event: the run keeps the programming.
        machine.pmu.program_events([Event.INST_RETIRED])
        before = machine.pmu.snapshot()
        probe_run(machine, tiny_core_workload)
        after = machine.pmu.snapshot()
        _, _, cycles = before.delta(after)
        # 2 GHz x elapsed time = cycles
        assert cycles == pytest.approx(machine.now_s * 2.0e9, rel=0.01)

    def test_transition_dead_time_charged(self, machine, tiny_core_workload):
        full = probe_run(
            Machine(MachineConfig(seed=42)), tiny_core_workload,
            until_s=0.02,
        )
        result = probe_run(
            machine, tiny_core_workload, script={1: ("mhz", 600.0)},
            until_s=0.02,
        )
        # The tick still spans the configured duration; instructions are
        # lost to the dead time (throughput dips).
        assert _durations(result)[1] == pytest.approx(machine.config.tick_s)
        assert machine.dvfs.total_dead_time_s > 0
        assert result.trace[1].instructions < full.trace[1].instructions


class TestJitterDeterminism:
    def test_same_seed_same_trajectory(self):
        def run(seed):
            result = probe_run(Machine(MachineConfig(seed=seed)), JITTERY)
            return [row.true_power_w for row in result.trace]

        assert run(7) == run(7)
        assert run(7) != run(8)
