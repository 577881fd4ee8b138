#!/usr/bin/env python3
"""Scenario: picking the energy-optimal (threads, frequency) pair.

A batch job on a 4-core machine can trade parallelism against clock
speed: more threads finish sooner but contend for the shared memory
bus, a slower clock burns less power but stretches the run.  This
example replays the ETL scan-heavy corpus scenario across every
(threads, p-state) configuration and prints the measured energy per
giga-instruction for each, flagging the optimum -- then compares it
with what :class:`EnergyOptimalSearch` predicts from single-core
counters alone.
"""

from repro import (
    EnergyOptimalSearch,
    FixedFrequency,
    LinearPowerModel,
    Machine,
    MachineConfig,
    MulticoreConfig,
    MulticoreMachine,
    PerformanceModel,
    PowerManagementController,
    corpus_trace,
    workload_from_trace,
)
from repro.multicore.contention import ContentionModel

N_CORES = 4
FREQUENCIES_MHZ = (600.0, 1000.0, 1400.0, 2000.0)
SCALE = 0.05


def run_config(workload, table, threads, frequency_mhz):
    machine = MulticoreMachine(MulticoreConfig(
        n_cores=N_CORES, machine=MachineConfig(seed=0),
    ))
    controller = PowerManagementController(
        machine, FixedFrequency(table, frequency_mhz), keep_trace=False,
    )
    return controller.run(
        workload,
        initial_pstate=table.by_frequency(frequency_mhz),
        threads=threads,
    )


def main() -> None:
    trace = corpus_trace("etl-scan-heavy", seed=0)
    workload = workload_from_trace(trace).scaled(SCALE)
    table = MachineConfig().table

    print(f"etl-scan-heavy on {N_CORES} cores "
          f"({workload.total_instructions / 1e9:.2f} Gi)\n")
    print(f"{'threads':>7} {'MHz':>6} {'J/Gi':>8} {'Gi/s':>7}")
    print("-" * 32)
    grid = []
    for threads in range(1, N_CORES + 1):
        for frequency in FREQUENCIES_MHZ:
            out = run_config(workload, table, threads, frequency)
            epgi = out.true_energy_j / (out.instructions / 1e9)
            gips = out.instructions / out.duration_s / 1e9
            grid.append((epgi, threads, frequency, gips))
            print(f"{threads:>7} {frequency:>6.0f} {epgi:>8.2f} {gips:>7.2f}")
        print("-" * 32)
    best = min(grid)
    print(f"measured optimum : {best[1]} threads @ {best[2]:.0f} MHz "
          f"({best[0]:.2f} J/Gi)")

    # What the governor would pick from one core's counters.
    machine = Machine(MachineConfig(seed=0))
    machine.load(workload)
    rates = machine.peek_rates()
    search = EnergyOptimalSearch(
        table,
        LinearPowerModel.paper_model(),
        PerformanceModel.paper_primary(),
        n_cores=N_CORES,
        bandwidth_ceiling_bytes_per_s=ContentionModel().ceiling(
            machine.config.timing
        ),
    )
    predicted = search.best_configuration(
        rates.ipc,
        rates.dpc,
        rates.dcu_per_ipc * rates.ipc,
        table.fastest,
        bytes_per_instruction=rates.bytes_per_s / rates.ips,
    )
    print(f"predicted optimum: {predicted.threads} threads @ "
          f"{predicted.pstate.frequency_mhz:.0f} MHz "
          f"({predicted.energy_per_giga_instruction_j:.2f} J/Gi)")


if __name__ == "__main__":
    main()
