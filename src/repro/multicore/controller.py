"""The multicore monitor -> estimate -> control loop.

:class:`MulticoreController` generalises
:class:`~repro.core.controller.PowerManagementController` to an N-core
machine: one governor per p-state domain, each sampling its domain's
lead core through the usual PMU path and actuating through the
domain-aware SpeedStep driver.  Every epoch (a configurable number of
ticks) a governor that implements ``recommend_threads`` may also change
the active thread count; the remaining instruction budget is re-split
across cores on the fly.

The tick body is a plain per-tick loop over the machine, sampler,
governor and meter objects; the single-core controller runs the fused
kernel (:func:`repro.core.blockloop.run_fast`) instead.  With one core,
one domain and one thread both produce the same RNG draws, float
accumulation order and meter segment stream, so the aggregate
:class:`~repro.core.controller.RunResult` digests bit-identically --
``tests/multicore/test_machine.py`` enforces it.

An observed run publishes the lead domain's per-tick values as one
``ticks`` record (:class:`~repro.telemetry.bus.TicksRecorded`) at its
end, or with the ticks it ran when it raises; the trace is built from
the same columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.acpi.pstates import PState
from repro.core.controller import RunResult, TickColumns
from repro.core.governors.base import Governor
from repro.core.governors.performance_maximizer import PerformanceMaximizer
from repro.core.sampling import CounterSample, CounterSampler, MultiplexedCounterSampler
from repro.errors import ExperimentError
from repro.measurement.power_meter import PowerMeter
from repro.multicore.machine import MulticoreMachine
from repro.telemetry.bus import ThreadsReconfigured
from repro.telemetry.recorder import TelemetryRecorder
from repro.workloads.base import Workload

_NAN = float("nan")


@dataclass
class MulticoreRunResult:
    """Outcome of one multicore (workload, governor) run.

    ``result`` is the aggregate, digest-compatible
    :class:`~repro.core.controller.RunResult` (package-level energy and
    instructions, domain-0 frequency residency/trace); the remaining
    fields carry what only a multicore run has.
    """

    result: RunResult
    n_cores: int
    threads: int
    per_core_instructions: tuple[float, ...]
    threads_history: tuple[tuple[float, int], ...]
    mean_bus_utilization: float
    peak_bus_utilization: float

    @property
    def energy_j(self) -> float:
        """Measured package energy."""
        return self.result.measured_energy_j

    @property
    def duration_s(self) -> float:
        """Simulated completion time of the slowest shard."""
        return self.result.duration_s


class MulticoreController:
    """Drives per-domain governors over a split workload on N cores."""

    def __init__(
        self,
        machine: MulticoreMachine,
        governors: Governor | Sequence[Governor],
        meter: PowerMeter | None = None,
        keep_trace: bool = True,
        telemetry: TelemetryRecorder | None = None,
        reconfigure_every_ticks: int = 25,
    ):
        self.machine = machine
        if isinstance(governors, Governor):
            governors = (governors,)
        self.governors: tuple[Governor, ...] = tuple(governors)
        n_domains = len(machine.domains)
        if len(self.governors) != n_domains:
            raise ExperimentError(
                f"need one governor per p-state domain: machine has "
                f"{n_domains} domain(s), got {len(self.governors)} "
                "governor(s)"
            )
        self.meter = (
            meter
            if meter is not None
            else PowerMeter(
                interval_s=machine.config.machine.tick_s,
                rng=np.random.default_rng(machine.config.machine.seed + 1001),
            )
        )
        machine.add_power_sink(self.meter.accumulate)
        self._keep_trace = keep_trace
        self._telemetry = telemetry
        if reconfigure_every_ticks < 1:
            raise ExperimentError(
                "reconfigure_every_ticks must be >= 1, got "
                f"{reconfigure_every_ticks!r}"
            )
        self._epoch_ticks = reconfigure_every_ticks

    def run(
        self,
        workload: Workload,
        threads: int | None = None,
        serial_fraction: float = 0.0,
        sync_overhead: float = 0.0,
        initial_pstate: PState | None = None,
        max_seconds: float = 600.0,
    ) -> MulticoreRunResult:
        """Run ``workload`` split over ``threads`` cores to completion."""
        machine = self.machine
        governors = self.governors
        for governor in governors:
            governor.reset()
        table = machine.config.machine.table
        start = initial_pstate if initial_pstate is not None else table.fastest
        machine.load(
            workload,
            threads=threads,
            serial_fraction=serial_fraction,
            sync_overhead=sync_overhead,
            initial_pstate=start,
        )
        tel = self._telemetry
        instrumented = tel is not None and tel.enabled
        samplers = []
        for d, governor in enumerate(governors):
            lead = machine.lead_core(d)
            groups = getattr(governor, "event_groups", None)
            if groups:
                samplers.append(MultiplexedCounterSampler(lead.pmu, groups))
            else:
                samplers.append(CounterSampler(lead.pmu, governor.events))
        for sampler in samplers:
            sampler.start()
        self.meter.mark(f"{workload.name}:start")
        sample_index = len(self.meter.samples)

        keep_trace = self._keep_trace
        lead_gov = governors[0]
        adaptive_threads = hasattr(lead_gov, "recommend_threads")
        instructions = 0.0
        true_energy = 0.0
        tick_index = 0
        utilization_sum = 0.0
        peak_utilization = 0.0
        residency: Dict[float, float] = {}
        # Domain 0's per-tick record (the trace and the ``ticks`` event).
        ticks = TickColumns()
        record = keep_trace or instrumented
        can_estimate = isinstance(lead_gov, PerformanceMaximizer)
        estimate_w = _NAN
        threads_history: List[tuple[float, int]] = [(0.0, machine.threads)]

        try:
            while not machine.finished:
                if machine.now_s > max_seconds:
                    raise ExperimentError(
                        f"{workload.name} under {lead_gov.name} exceeded "
                        f"{max_seconds}s of simulated time"
                    )
                tick = machine.step()
                domain_samples: list[CounterSample] = []
                for d, sampler in enumerate(samplers):
                    lead_record = tick.core_records[machine.domains[d][0]]
                    interval = (
                        lead_record.duration_s
                        if lead_record is not None
                        else tick.duration_s
                    )
                    domain_samples.append(sampler.sample(interval))
                instructions += tick.instructions
                true_energy += tick.energy_j
                lead_record = tick.core_records[0]
                freq = (
                    lead_record.pstate.frequency_mhz
                    if lead_record is not None
                    else machine.current_pstate.frequency_mhz
                )
                residency[freq] = residency.get(freq, 0.0) + tick.duration_s
                measured = (
                    self.meter.samples[-1].watts
                    if len(self.meter.samples) > sample_index
                    else tick.power_w
                )

                for d, governor in enumerate(governors):
                    current = machine.lead_core(d).current_pstate
                    target = governor.decide(domain_samples[d], current)
                    if target != current:
                        machine.speedstep.set_pstate(target, domain=d)
                    if d == 0:
                        lead_current, lead_target = current, target
                if hasattr(lead_gov, "observe_power"):
                    lead_gov.observe_power(measured)

                utilization_sum += tick.bus_utilization
                peak_utilization = max(peak_utilization, tick.bus_utilization)
                if (
                    adaptive_threads
                    and machine.n_cores > 1
                    and (tick_index + 1) % self._epoch_ticks == 0
                ):
                    proposal = lead_gov.recommend_threads(
                        domain_samples, machine.threads, machine.n_cores,
                        bus_utilization=tick.bus_utilization,
                    )
                    if proposal != machine.threads:
                        before = machine.threads
                        machine.resplit(proposal)
                        threads_history.append(
                            (machine.now_s, machine.threads)
                        )
                        if instrumented:
                            tel.emit(ThreadsReconfigured(
                                time_s=machine.now_s,
                                from_threads=before,
                                to_threads=machine.threads,
                                bus_utilization=tick.bus_utilization,
                            ))

                if record:
                    lead_sample = domain_samples[0]
                    temperature = (
                        lead_record.temperature_c
                        if lead_record is not None
                        else None
                    )
                    if instrumented:
                        ticks.add_rates(lead_sample.rates)
                        ticks.target_mhz.append(lead_target.frequency_mhz)
                        ticks.interval_s.append(lead_sample.interval_s)
                        ticks.cycles.append(lead_sample.cycles)
                        if can_estimate:
                            estimate_w = lead_gov.estimate_power(
                                lead_sample, lead_current, lead_target
                            )
                        ticks.estimate_w.append(estimate_w)
                        limit_w = getattr(lead_gov, "power_limit_w", None)
                        ticks.limit_w.append(
                            _NAN if limit_w is None else limit_w
                        )
                    if keep_trace:
                        ticks.trace_rates.append(dict(lead_sample.rates))
                    ticks.time_s.append(machine.now_s)
                    ticks.frequency_mhz.append(freq)
                    ticks.measured_power_w.append(measured)
                    ticks.true_power_w.append(tick.power_w)
                    ticks.instructions.append(tick.instructions)
                    ticks.duty.append(
                        lead_record.duty if lead_record is not None else 1.0
                    )
                    ticks.temperature_c.append(
                        _NAN if temperature is None else temperature
                    )
                tick_index += 1
        except BaseException:
            if instrumented:
                # A failed run still publishes the ticks it ran;
                # temperature_c is the last column a tick appends, so a
                # torn tick is dropped.
                ticks.truncate(len(ticks.temperature_c))
                tel.emit(
                    ticks.event(machine.now_s, workload.name, lead_gov.name)
                )
            raise

        self.meter.flush()
        self.meter.mark(f"{workload.name}:end")
        samples = self.meter.samples_between(
            f"{workload.name}:start", f"{workload.name}:end"
        )
        measured_energy = self.meter.energy_j(samples)
        if instrumented:
            tel.emit(ticks.event(machine.now_s, workload.name, lead_gov.name))
        aggregate = RunResult(
            workload=workload.name,
            governor=lead_gov.name,
            duration_s=machine.now_s,
            instructions=instructions,
            measured_energy_j=measured_energy,
            true_energy_j=true_energy,
            samples=samples,
            trace=ticks.trace() if keep_trace else (),
            residency_s=residency,
            transitions=machine.transition_count,
        )
        return MulticoreRunResult(
            result=aggregate,
            n_cores=machine.n_cores,
            threads=machine.threads,
            per_core_instructions=tuple(
                core.retired_instructions
                for core in machine.cores[: machine.threads]
            ),
            threads_history=tuple(threads_history),
            mean_bus_utilization=(
                utilization_sum / tick_index if tick_index else 0.0
            ),
            peak_bus_utilization=peak_utilization,
        )
