#!/usr/bin/env python3
"""Scenario: record a counter trace in production, replay it in the lab.

An operator wants to evaluate PowerSave against last week's
workload without re-running the application.  The flow:

1. record the counter signature of a live (here: simulated) run,
2. persist it as CSV,
3. reconstruct a replayable workload from the trace,
4. evaluate candidate governors against the replay.

The replay preserves the counter signature -- which is all the paper's
governors ever see -- so policy decisions transfer.
"""

from repro import (
    FixedFrequency,
    Machine,
    MachineConfig,
    PerformanceModel,
    PowerManagementController,
    PowerSave,
    get_workload,
)
from repro.workloads.traces import (
    CounterTrace,
    record_trace,
    workload_from_trace,
)


def run(workload, make_governor, seed=0):
    machine = Machine(MachineConfig(seed=seed))
    controller = PowerManagementController(
        machine, make_governor(machine.config.table), keep_trace=True
    )
    return controller.run(workload)


def main() -> None:
    # 1. "production": gcc under PS monitors IPC + DCU every 10 ms.
    production = run(
        get_workload("gcc").scaled(0.4),
        lambda t: PowerSave(t, PerformanceModel.paper_primary(), 0.8),
    )
    trace = record_trace(production, name="gcc-prod")
    print(f"recorded {len(trace)} intervals "
          f"({trace.total_instructions / 1e9:.2f}G instructions)")

    # 2. persist / reload as CSV.
    csv_text = trace.to_csv()
    reloaded = CounterTrace.from_csv("gcc-prod", csv_text)
    print(f"CSV round-trip: {len(csv_text.splitlines()) - 1} rows")

    # 3. reconstruct a replayable workload.
    replay = workload_from_trace(reloaded)
    print(f"reconstructed workload: {len(replay.phases)} phases, "
          f"{replay.total_instructions / 1e9:.2f}G instructions\n")

    # 4. evaluate candidate floors against the replay.
    baseline = run(replay, lambda t: FixedFrequency(t, 2000.0))
    print(f"{'candidate':>12} {'time s':>8} {'energy J':>9} {'perf':>6}")
    for floor in (0.9, 0.8, 0.6):
        candidate = run(
            replay,
            lambda t, f=floor: PowerSave(
                t, PerformanceModel.paper_primary(), f
            ),
        )
        perf = baseline.duration_s / candidate.duration_s
        print(f"{f'PS {floor:.0%}':>12} {candidate.duration_s:8.3f} "
              f"{candidate.measured_energy_j:9.2f} {perf:6.2f}")


if __name__ == "__main__":
    main()
