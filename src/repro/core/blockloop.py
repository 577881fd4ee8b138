"""The monitor->estimate->control loop: one fused tick kernel.

Every :class:`~repro.core.controller.PowerManagementController` run,
single-core or multicore, goes through :func:`run_fast`.  One Python
loop holds the machine tick (segment math from the cached
:class:`~repro.platform.blockstep.RateTemplate` rows), the inlined meter
and PMU updates and the governor's decision, all in local variables;
no ``ResolvedRates`` or ``EventRates`` is built per tick.  It is the
only place simulated time advances: model training and every other
characterization run a controller too.

The decision is one of five modes, selected by the run's own inputs:

* **Table modes** -- a stock PerformanceMaximizer or PowerSave reads its
  precomputed projection table
  (:meth:`PerformanceMaximizer.projection_table` /
  :meth:`PowerSave.projection_table`), DemandBasedSwitching steps on
  utilization, and StaticClocking / FixedFrequency return a constant
  target index.  The sampler's arithmetic is inlined too.  These run
  when the governor is one of those exact types and the run has no
  per-tick hook.
* **Hook mode** -- every other run (resilience, fault injection,
  adaptation, constraint schedules, multiplexed counters, measured-power
  governors, any other governor).  At each decision boundary the kernel
  writes its locals back to the machine, PMU and meter, runs the
  decision block on the real objects (schedule delivery, the sampler,
  the resilience runtime, ``governor.decide``, the driver,
  ``observe_power``, ``adapt.observe``), then re-reads what those may
  have changed: p-state, dead time, duty cycle, PMU programming.  An
  exact :class:`~repro.core.sampling.CounterSampler` (or each group of
  a :class:`~repro.core.sampling.MultiplexedCounterSampler`) closes its
  interval on a snapshot built from the kernel's counter locals
  (``close``); a fault wrapper or the resilience runtime samples
  through the MSRs (``sample``).

The machine side follows its inputs as well: a thermal machine prices
leakage at the package temperature and advances the thermal model each
segment; a counter programmed with an event the kernel does not compute
inline takes its rate from ``resolve_rates``; a
:class:`~repro.faults.injector.FaultyPowerMeter` meters through its
inner :class:`~repro.measurement.power_meter.PowerMeter` and corrupts
the tick's closed samples right after the tick's physics.

**Multicore lanes.**  A :class:`~repro.multicore.machine.MulticoreMachine`
with N > 1 cores runs as N lanes of the same machine tick.  Each tick
first reads every active core's uncontended bus demand and takes each
lane's contended ``(dram_latency_ns, bus_bandwidth)`` from
:meth:`~repro.multicore.contention.ContentionModel.effective_scalars`
(None: no pressure, the base timing).  Then each unfinished lane loads
its core's state into the locals, runs the tick body and stores it back
(lead core last).  Every lane reads the cached base template rows; a
contended lane's five timing-dependent fields are recomputed straight
into the locals (:func:`~repro.platform.blockstep._timing_fields`) on
the lane switch and at each phase it crosses, so no timing or template
object is built per lane per tick.  A lane's segments skip the meter:
finished and idle cores are padded with idle power to the slowest
core's duration, and the package mean goes once through the inlined
meter body.  The decision -- always hook mode -- runs on the lead
core's sampler and the package driver.  A single-core run (or a
one-core package) is one lane with no switch.

**Bit-identical contract.**  The kernel reproduces the RNG variates,
float operation order and side effects of the per-tick machine physics
and the loops it replaced: the scalar reference loop and the lock-step
multicore loop, which stepped the machine (each core) once per tick.
``tests/platform/golden_ticks.json`` freezes that physics tick by tick
(``tests/platform/test_golden_ticks.py``), ``tests/core/golden_loop.json``
those loops' digests and telemetry bundles
(``tests/core/test_block_equivalence.py``).

**Telemetry does not change the loop.**  An observed run, and a run
that keeps its trace, appends each tick's values as plain floats to the
run's :class:`~repro.core.controller.TickColumns`; no event or
``TraceRow`` is built per tick.  Only rare moments (p-state
transitions, constraint changes, faults) are published as they happen;
the run's metrics, trace and one ``ticks`` record come from the columns
at its end (:class:`~repro.core.controller._TickTelemetry`).  Spans are
per cell, not per tick.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import replace

from repro.core.governors.demand_based import DemandBasedSwitching
from repro.core.governors.performance_maximizer import PerformanceMaximizer
from repro.core.governors.powersave import PowerSave
from repro.core.governors.static import StaticClocking
from repro.core.governors.unconstrained import FixedFrequency
from repro.core.sampling import CounterSampler, MultiplexedCounterSampler
from repro.errors import ExperimentError
from repro.drivers.msr import (
    IA32_PMC0,
    IA32_PMC1,
    IA32_TIME_STAMP_COUNTER,
)
from repro.drivers.pmu import CounterSnapshot
from repro.platform.blockstep import (
    _M40,
    _M64,
    _NEG_INV_P,
    _NEG_P,
    _SELECTOR,
    _timing_fields,
    rate_template,
)
from repro.platform.pipeline import (
    DCU_OUTSTANDING_CAP,
    DECODE_WIDTH,
    _OCCUPANCY_CAP,
    resolve_rates,
)
from repro.platform.power import idle_power
from repro.telemetry.bus import ConstraintChanged

#: Gaussian pre-draws per refill (even, so the meter's
#: two-variates-per-sample reads never straddle a refill).
_RNG_CHUNK = 1024

_INF = float("inf")
_NAN = float("nan")

#: Selector of a programmed event the kernel does not compute inline.
_RESOLVED = len(_SELECTOR)

#: Governors with a table-driven decision mode.  Exact-type checks:
#: subclasses (e.g. AdaptivePerformanceMaximizer) may override anything.
_GOVERNORS = (
    PerformanceMaximizer,
    PowerSave,
    DemandBasedSwitching,
    StaticClocking,
    FixedFrequency,
)


def _programmed(pmu):
    """The two programmed events and the per-segment rate selector of
    each (None for a disabled counter)."""
    event0, event1 = pmu._events
    return (
        event0,
        event1,
        None if event0 is None else _SELECTOR.get(event0, _RESOLVED),
        None if event1 is None else _SELECTOR.get(event1, _RESOLVED),
    )


def _table_mode(st) -> bool:
    """Whether ``st``'s governor decides from the kernel's tables: a
    stock table governor over the machine's p-states, on one core, with
    no per-tick hook."""
    governor = st.governor
    return (
        type(governor) in _GOVERNORS
        and len(st.lanes) == 1
        and st.rt is None
        and not st.injecting
        and not st.adapting
        and st.schedule is None
        and type(st.sampler) is CounterSampler
        and tuple(governor.table) == tuple(st.lanes[0].config.table)
    )


def _lane(machine):
    """One core's fixed objects: the machine, its cursor, PMU, MSR
    reader, DVFS, throttle, thermal model and jitter generator, its
    instruction budget and finish line, and the generator's state at
    the run's start."""
    cursor = machine._cursor
    total = cursor._workload.total_instructions
    rng = machine._rng
    return (
        machine, cursor, machine.pmu, machine.msr.rdmsr, machine.dvfs,
        machine.throttle, machine.thermal, rng.standard_normal, total,
        total - 1e-9, rng.bit_generator.state,
    )


def _load(machine, cursor, pmu, rdmsr, dvfs, throttle):
    """The kernel's machine and PMU locals, read from the objects."""
    return (
        machine._time_s,
        machine._jitter_log,
        machine._charged_dead_time_s,
        dvfs.total_dead_time_s,
        cursor._phase_index,
        cursor._into_phase,
        cursor._retired,
        dvfs.current,
        throttle.duty,
        *_programmed(pmu),
        pmu._cycle_residual,
        *pmu._residuals,
        rdmsr(IA32_PMC0),
        rdmsr(IA32_PMC1),
        rdmsr(IA32_TIME_STAMP_COUNTER),
    )


def _store(machine, cursor, pmu, time_s, jitter_log, charged, retired,
           into_phase, phase_index, cycle_res, res0, res1, pmc0, pmc1, tsc):
    """Write the kernel's machine and PMU locals to the objects."""
    machine._time_s = time_s
    machine._jitter_log = jitter_log
    machine._charged_dead_time_s = charged
    cursor._retired = retired
    cursor._into_phase = into_phase
    cursor._phase_index = phase_index
    pmu._cycle_residual = cycle_res
    pmu._residuals[0] = res0
    pmu._residuals[1] = res1
    msr = machine.msr
    msr.poke(IA32_PMC0, pmc0)
    msr.poke(IA32_PMC1, pmc1)
    msr.poke(IA32_TIME_STAMP_COUNTER, tsc)


def _bus_demand(template, jitter_log):
    """A core's uncontended bus traffic in bytes/s (``resolve_rates``'
    ``bytes_per_s``) at ``template`` under jitter state ``jitter_log``."""
    jitter = math.exp(jitter_log - template.half_sig2)
    ips = template.hz / (
        template.cpi_core / jitter + template.l2_stall_pi
        + template.dram_stall_pi
    )
    if template.bytes_pi > 0:
        ips = (ips**_NEG_P + template.bw_neg_p) ** _NEG_INV_P
    return ips * template.bytes_pi


def _rewind(rng, state, drawn, refills):
    """Rewind ``rng`` to ``state``, then consume exactly what the run
    used: ``refills`` chunks of which the last was read ``drawn`` deep
    (one array draw lands the generator where that many scalar draws
    would)."""
    rng.bit_generator.state = state
    used = (refills - 1) * _RNG_CHUNK + drawn
    if used:
        rng.standard_normal(used)


def _meter_parts(meter):
    """The power meter the kernel integrates into, and the fault pass to
    run once per tick after the physics (None for a clean meter): a
    :class:`~repro.faults.injector.FaultyPowerMeter` meters through its
    inner meter."""
    from repro.faults.injector import FaultyPowerMeter

    if type(meter) is FaultyPowerMeter:
        return meter._inner, meter._corrupt_new_samples
    return meter, None


class _Package:
    """A multicore package's bookkeeping around its per-core lanes.

    :meth:`begin` reads every active core's uncontended bus demand and
    hands out this tick's contended ``(dram_latency_ns, bus_bandwidth)``
    per lane; the kernel steps each lane and records it with
    :meth:`finish`; :meth:`end` pads finished and idle cores with idle
    power and advances package time, and the kernel meters the package
    mean once -- what the lock-step ``MulticoreMachine`` tick did.
    """

    def __init__(self, package, template_rows, state_index):
        self.package = package
        self.cores = package.cores
        #: One :func:`_lane` per active core; core 0 leads.
        self.lanes = [_lane(core) for core in self.cores[: package.threads]]
        config = self.cores[0].config
        self.base = config.timing
        self.constants = config.power
        self.contention = package.config.contention
        self.rows = template_rows
        self.state_index = state_index
        self.done = [lane[1].finished for lane in self.lanes]
        #: Each lane's jitter chunk buffer: (buffer, drawn, refills).
        self.jitter = [(None, _RNG_CHUNK, 0)] * len(self.lanes)
        #: Per lane: None (no pressure, the base timing) or its contended
        #: (dram_latency_ns, bus_bandwidth) this tick.
        self.timings = ()
        self.stepped = []

    def begin(self):
        """Set this tick's per-lane timings; returns the lanes to step,
        lead core last (it is the one loaded for the decision, also once
        it has finished)."""
        demands = []
        for lane, done in zip(self.lanes, self.done):
            if done:
                demands.append(0.0)
                continue
            # The bus demand at the base timing: the current phase and
            # p-state, the previous tick's jitter.
            core, cursor = lane[0], lane[1]
            pstate = core.dvfs.current
            row = self.rows[self.state_index[pstate]]
            index = cursor._phase_index
            template = row[index]
            if template is None:
                template = row[index] = rate_template(
                    cursor._workload.phases[index], pstate, self.base,
                    self.constants,
                )
            demands.append(_bus_demand(template, core._jitter_log))
        self.timings = self.contention.effective_scalars(self.base, demands)
        self.note_bus(demands)
        self.stepped = [None] * len(self.cores)
        order = [
            k for k in range(len(self.lanes) - 1, 0, -1) if not self.done[k]
        ]
        order.append(0)
        return order

    def note_bus(self, demands):
        """Fold one tick's bus demands into the peak utilization."""
        bus = self.contention.utilization(self.base, demands)
        if bus > self.package.peak_bus_utilization:
            self.package.peak_bus_utilization = bus

    def fields(self, contended, phase, freq_mhz):
        """The five timing-dependent template fields of a lane at its
        contended ``(dram_latency_ns, bus_bandwidth)``."""
        return _timing_fields(
            phase, freq_mhz, self.base.l2_latency_cycles, *contended
        )

    def timing(self, contended):
        """A contended lane's timing as a :class:`MemoryTiming` (for the
        rare ``resolve_rates`` fallback)."""
        return replace(
            self.base,
            dram_latency_ns=contended[0],
            bus_bandwidth_bytes_per_s=contended[1],
        )

    def finish(self, lane, elapsed, energy, instructions, done):
        """Record one lane's tick."""
        self.stepped[lane] = (elapsed, energy, instructions)
        self.done[lane] = done

    def end(self):
        """Close the package tick.  Returns the package time, the tick's
        duration, the lead core's sample interval, the package energy
        and instructions, and the mean power to meter."""
        stepped = self.stepped
        duration = max(out[0] for out in stepped if out is not None)
        energy = 0.0
        instructions = 0.0
        # Core order, as the lock-step tick summed it.
        for core, out in zip(self.cores, stepped):
            if out is not None:
                pad = duration - out[0]
                energy += out[1]
                instructions += out[2]
            else:
                pad = duration
            if pad > 1e-15:
                energy += idle_power(core.dvfs.current, self.constants) * pad
        package = self.package
        package._time_s += duration
        power = energy / duration if duration > 0 else 0.0
        lead = stepped[0]
        return (
            package._time_s,
            duration,
            lead[0] if lead is not None else duration,
            energy,
            instructions,
            power,
        )

    def rewind(self):
        """Rewind every lane's jitter generator (see :func:`run_fast`)."""
        for lane, (buf, drawn, refills) in zip(self.lanes, self.jitter):
            if buf is not None:
                _rewind(lane[0]._rng, lane[-1], drawn, refills)


def _store_meter(meter, time_s, bucket_e, bucket_t):
    """Write the kernel's meter locals to the meter."""
    meter._time_s = time_s
    meter._bucket_energy_j = bucket_e
    meter._bucket_time_s = bucket_t


def run_fast(st, tel):
    """Drive ``st`` to completion; returns its
    :class:`~repro.core.controller.RunResult`.

    The segment math and the meter bucket loop are inlined bodily (no
    function calls on the tick path), template fields live in unpacked
    locals refreshed only on phase/p-state change, and ``min``/``max``
    builtins are replaced by branch expressions with identical float
    semantics.

    The per-tick Gaussian draws (jitter innovation, sense-amp noise,
    ADC noise) come from chunked ``standard_normal`` buffers: numpy
    array draws consume the exact same variate stream as repeated
    scalar calls and ``0.0 + scale * z`` is bitwise ``normal(0.0,
    scale)``, so every consumed value is identical.  The refills run
    the generators ahead by the unconsumed tail, which the ``finally``
    block rewinds.  No decision hook draws from those two generators.

    Object state is written back (``finally``) on the simulated-time
    limit raise and at loop exit, so final and error states are the
    same as after per-tick stepping.

    CPython addresses a local by a one-byte index; each access to a
    local past the 256th costs an extra ``EXTENDED_ARG`` instruction,
    and the last locals in source order are the table-mode decision's.
    So setup-only values stay in expressions or helpers and the
    multicore bookkeeping lives in :class:`_Package`: supporting lanes
    adds no cost to a single-core tick.
    """
    from repro.core import controller

    # A multicore package runs one lane per core; each tick steps its
    # unfinished cores, then meters and decides for the package.
    multi = len(st.lanes) > 1
    governor = st.governor
    meter = st.meter
    sampler = st.sampler
    driver = st.driver
    schedule = st.schedule
    rt = st.rt
    injector = st.injector
    injecting = st.injecting
    adapt = st.adapt
    adapting = st.adapting
    workload_name = st.workload_name
    # One compare per tick covers the horizon and the runaway guard:
    # time_s > max_seconds is time_s >= nextafter(max_seconds, inf).
    stop_s = min(st.until_s, math.nextafter(st.max_seconds, _INF))
    keep_trace = st.keep_trace
    observe = tel is not None and tel.enabled
    # The per-tick columns are kept for the telemetry record and the trace.
    record = observe or keep_trace
    hooked = not _table_mode(st)
    # Temperature is only read when someone consumes it.
    track_temp = rt is not None or injecting or observe or keep_trace
    observe_power = getattr(governor, "observe_power", None)

    # Lane 0 is the lead core: the one the governor samples.
    (machine, cursor, pmu, rdmsr, dvfs, throttle, thermal, mach_std, total,
     finish_line, jit_state0) = _lane(st.lanes[0])
    config = machine.config
    # Every shard of a split workload runs the same phase cycle.
    phases = cursor._workload.phases
    n_phases = len(phases)
    dt = config.tick_s
    dt_eps = dt - 1e-12
    timing = config.timing
    # A contended lane's (dram_latency_ns, bus_bandwidth); None: the
    # base timing.
    contended = None
    constants = config.power
    leak_power = constants.leakage.power
    _exp = math.exp

    states = tuple(config.table)
    n_states = len(states)
    state_index = {state: i for i, state in enumerate(states)}

    # Machine / PMU state -> locals (written back at loop exit).
    (time_s, jitter_log, charged, dead_total, phase_index, into_phase,
     retired, pstate, duty, event0, event1, selector0, selector1, cycle_res,
     res0, res1, pmc0, pmc1, tsc) = _load(
        machine, cursor, pmu, rdmsr, dvfs, throttle
    )
    current_index = state_index[pstate]
    freq = pstate.frequency_mhz
    freq_1e6 = freq * 1e6

    # One template row per p-state, filled lazily per phase, at the
    # uncontended timing (shared by every lane).
    template_rows = [[None] * n_phases for _ in range(n_states)]
    templates = template_rows[current_index]

    gov_states = tuple(governor.table)
    mode = None
    if hooked:
        delivered = 0
        # An exact sampler (or rotation of them) closes its interval on
        # a snapshot of the kernel's counters; a fault wrapper or the
        # resilience runtime samples through the objects.
        close_sample = (
            sampler.close
            if rt is None
            and type(sampler) in (CounterSampler, MultiplexedCounterSampler)
            else None
        )
    elif type(governor) is PerformanceMaximizer:
        mode = 0
        proj_rows = governor.projection_table().rows
        budget_w = governor._limit - governor._guardband
        raise_window = governor._raise_window
        raise_streak = governor._raise_streak
        pending_index = (
            state_index[governor._pending_raise]
            if governor._pending_raise is not None
            else None
        )
    elif type(governor) is PowerSave:
        mode = 1
        ps_proj = governor.projection_table()
        floor_plus_eps = governor._floor + 1e-12
        dcu_threshold = governor._model.dcu_threshold
        fastest_mhz = ps_proj.fastest_mhz
        fast_factor = ps_proj.fast_factor
        ascending_rows = ps_proj.ascending
    elif type(governor) is DemandBasedSwitching:
        mode = 2
        up_threshold = governor._up
        down_threshold = governor._down
    else:  # StaticClocking / FixedFrequency: one constant target
        mode = 3
        static_index = state_index[governor._pstate]

    # Meter state -> locals (PowerMeter.accumulate, inlined bodily).  A
    # faulty meter meters through its inner meter; its corruption pass
    # runs once per tick, after the physics.
    power_meter, corrupt = _meter_parts(meter)
    # Sinks other than this run's meter (e.g. the meter of an earlier
    # controller on the same machine) are fed segment by segment.
    extra_sinks = tuple(
        sink
        for sink in st.machine._power_sinks
        if getattr(sink, "__self__", None) is not meter
    )
    m_interval = power_meter.interval_s
    sense = power_meter._sense
    adc = power_meter._adc
    supply = power_meter._supply_v
    realized = sense._realized_ohm
    nominal = sense.resistance_ohm
    amp_noise = sense.amplifier_noise_v
    sense_normal = sense._rng.normal
    sense_std = sense._rng.standard_normal
    adc_normal = adc._rng.normal
    noise_floor = adc.noise_floor_watts
    full_scale = adc.full_scale_watts
    lsb = adc.full_scale_watts / (1 << adc.bits)
    # A sample close appends four floats to the meter's columns.
    meter_watts = power_meter._samples.watts
    s_watts_append = meter_watts.append
    s_time_append = power_meter._samples.time_s.append
    s_true_append = power_meter._samples.true_watts.append
    s_dur_append = power_meter._samples.duration_s.append
    n_samples = len(meter_watts)
    last_measured_w = meter_watts[-1] if n_samples else 0.0
    m_time = power_meter._time_s
    bucket_e = power_meter._bucket_energy_j
    bucket_t = power_meter._bucket_time_s

    residency = st.residency
    instructions = st.instructions
    true_energy = st.true_energy
    sample_index = st.sample_index

    # The stock meter hands ONE generator to both front ends, so sense
    # and ADC noise interleave on a single stream: each sample close
    # consumes exactly two variates, in order, from one shared buffer
    # (_RNG_CHUNK is even, keeping refills aligned).  A meter with
    # split generators keeps scalar draws.
    batch_meter = sense._rng is adc._rng
    meter_std = sense_std
    jit_buf = m_buf = None
    jit_i = m_i = _RNG_CHUNK
    jit_refills = m_refills = 0
    # Chunk refills run each generator ahead of the per-draw script; the
    # `finally` below rewinds to the states at the run's start and
    # re-consumes exactly the used counts, so post-loop consumers (the
    # run-end meter flush) see exact streams.  Each lane keeps its own
    # jitter buffer.
    m_state0 = sense._rng.bit_generator.state

    lane = 0
    tick_lanes = (0,)
    # Whether any core of a multicore package still has work (the loaded
    # core's locals alone decide a single-core run).
    pending = False
    # A multicore package (of any size) tracks its bus utilization.
    pkg = None
    if st.machine is not machine:
        pkg = _Package(st.machine, template_rows, state_index)
    if multi:
        pending = not all(pkg.done)
    close_eps = m_interval - 1e-12

    # Current-p-state residency accumulates in a local; flushed to the
    # dict on p-state change and at loop exit.  A key is added only when
    # a tick runs, so the exit writes a state that no tick has run at
    # (entered on the last decision) only if the key exists.
    res_acc = residency.get(freq, 0.0)

    # Unpacked fields of the template the loop last touched.
    t_cur = None
    in_decision = False

    ticks = st.ticks
    if record:
        time_append = ticks.time_s.append
        freq_append = ticks.frequency_mhz.append
        measured_append = ticks.measured_power_w.append
        true_append = ticks.true_power_w.append
        instr_append = ticks.instructions.append
        duty_append = ticks.duty.append
        temp_append = ticks.temperature_c.append
        trace_rates_append = ticks.trace_rates.append
    observer = None
    if observe:
        if not hooked:
            ticks.rates[event0] = rates0 = array("d")
            rate0_append = rates0.append
            if mode == 1:
                ticks.rates[event1] = rates1 = array("d")
                rate1_append = rates1.append
        observer = controller._TickTelemetry(st, tel)
        transition = observer.transition
        emit = tel.emit
        target_append = ticks.target_mhz.append
        interval_append = ticks.interval_s.append
        cycles_append = ticks.cycles.append
        estimate_append = ticks.estimate_w.append
        limit_append = ticks.limit_w.append
        # estimate_power(sample, current, candidate): the Eq. 2 PMs.
        can_estimate = isinstance(governor, PerformanceMaximizer)
        # The last power estimate (NaN: none yet) and the power limit
        # (NaN: none); a table-mode run's limit never changes.
        estimate_w = _NAN
        limit_w = getattr(governor, "power_limit_w", None)
        if limit_w is None:
            limit_w = _NAN

    completed = False
    try:
        while retired < finish_line or pending:
            if time_s >= stop_s:
                if stop_s < st.until_s:
                    raise ExperimentError(
                        f"{workload_name} under {governor.name} exceeded "
                        f"{st.max_seconds}s of simulated time"
                    )
                break
            if hooked and schedule is not None:
                for change in schedule.due(time_s, delivered):
                    change.apply(governor)
                    delivered += 1
                    if observe:
                        emit(ConstraintChanged(
                            time_s=time_s, label=change.label
                        ))
            if pkg is not None:
                if multi:
                    tick_lanes = pkg.begin()
                else:
                    # One core: no contention, but the package still
                    # reports its bus utilization.
                    template = templates[phase_index]
                    if template is None:
                        template = templates[phase_index] = rate_template(
                            phases[phase_index], pstate, timing, constants
                        )
                    pkg.note_bus((_bus_demand(template, jitter_log),))
            for lane in tick_lanes:
                if multi:
                    # ---- lane switch: objects -> locals ----
                    (machine, cursor, pmu, rdmsr, dvfs, throttle, thermal,
                     mach_std, total, finish_line, jit_state0) = pkg.lanes[lane]
                    (time_s, jitter_log, charged, dead_total, phase_index,
                     into_phase, retired, pstate, duty, event0, event1,
                     selector0, selector1, cycle_res, res0, res1, pmc0, pmc1,
                     tsc) = _load(
                        machine, cursor, pmu, rdmsr, dvfs, throttle
                    )
                    jit_buf, jit_i, jit_refills = pkg.jitter[lane]
                    current_index = state_index[pstate]
                    freq = pstate.frequency_mhz
                    if pkg.done[lane]:
                        # A finished lead core is loaded for the decision
                        # only; it reports no temperature or throttling.
                        thermal = None
                        duty = 1.0
                        continue
                    # Every lane reads the base rows; a contended lane
                    # overrides its timing-dependent fields on each load.
                    contended = pkg.timings[lane]
                    templates = template_rows[current_index]
                    t_cur = None
                # ---- machine tick (tests/platform/golden_ticks.json) ----
                start_time = time_s
                energy = 0.0
                tick_instr = 0.0
                elapsed = 0.0
                pmc0_start = pmc0
                pmc1_start = pmc1
                tsc_start = tsc

                template = templates[phase_index]
                if template is None:
                    template = templates[phase_index] = rate_template(
                        phases[phase_index], pstate, timing, constants
                    )
                if template is not t_cur:
                    t_cur = template
                    t_hz = template.hz
                    t_cpi_core = template.cpi_core
                    t_l2_stall = template.l2_stall_pi
                    t_dram_stall = template.dram_stall_pi
                    t_bytes_pi = template.bytes_pi
                    t_bw_neg_p = template.bw_neg_p
                    t_bus_bw = template.bus_bw
                    t_dcu_occ = template.dcu_occupancy_pi
                    t_decode = template.decode_ratio
                    t_fp_ratio = template.fp_ratio
                    t_l2r = template.l2r_coeff
                    t_c_base = template.c_base
                    t_c_gate = template.c_gate
                    t_c_dpc_f = template.c_dpc_f
                    t_c_fp = template.c_fp
                    t_c_l2 = template.c_l2
                    t_c_bus = template.c_bus
                    t_v2f = template.v2f
                    t_static = template.static_w
                    t_idle_w = template.idle_w
                    t_freq_mhz = template.freq_mhz
                    t_instructions = template.instructions
                    t_phase_end = template.phase_end
                    t_sigma = template.sigma
                    t_rho = template.rho
                    t_jitter_scale = template.jitter_scale
                    t_half_sig2 = template.half_sig2
                    if contended is not None:
                        (t_l2_stall, t_dram_stall, t_bw_neg_p, t_bus_bw,
                         t_dcu_occ) = pkg.fields(
                            contended, phases[phase_index], t_freq_mhz
                        )

                dead = dead_total - charged
                if dead > 0:
                    if dead > dt:
                        dead = dt
                    charged += dead
                    energy += t_idle_w * dead
                    # A lane's segments are metered as the package mean.
                    if not multi:
                        # Inlined meter emit(t_idle_w, dead).
                        remaining_t = dead
                        while remaining_t > 0:
                            room = m_interval - bucket_t
                            chunk = remaining_t if remaining_t < room else room
                            bucket_e += t_idle_w * chunk
                            bucket_t += chunk
                            m_time += chunk
                            remaining_t -= chunk
                            if bucket_t >= close_eps:
                                true_mean = bucket_e / bucket_t
                                true_current = true_mean / supply
                                if batch_meter:
                                    if m_i == _RNG_CHUNK:
                                        m_buf = meter_std(_RNG_CHUNK).tolist()
                                        m_i = 0
                                        m_refills += 1
                                    s_noise = 0.0 + amp_noise * m_buf[m_i]
                                    a_noise = (
                                        0.0 + noise_floor * m_buf[m_i + 1]
                                    )
                                    m_i += 2
                                else:
                                    s_noise = sense_normal(0.0, amp_noise)
                                    a_noise = adc_normal(0.0, noise_floor)
                                v_sense = true_current * realized + s_noise
                                sensed = (v_sense / nominal) * supply
                                noisy = sensed + a_noise
                                clipped = 0.0 if 0.0 > noisy else noisy
                                if full_scale < clipped:
                                    clipped = full_scale
                                measured_w = round(clipped / lsb) * lsb
                                s_time_append(m_time)
                                s_watts_append(measured_w)
                                s_true_append(true_mean)
                                s_dur_append(bucket_t)
                                last_measured_w = measured_w
                                n_samples += 1
                                bucket_e = 0.0
                                bucket_t = 0.0
                        if extra_sinks:
                            for sink in extra_sinks:
                                sink(t_idle_w, dead)
                    elapsed += dead

                if t_sigma == 0.0:
                    jitter_log = 0.0
                    jitter = 1.0
                else:
                    if jit_i == _RNG_CHUNK:
                        jit_buf = mach_std(_RNG_CHUNK).tolist()
                        jit_i = 0
                        jit_refills += 1
                    innovation = 0.0 + t_jitter_scale * jit_buf[jit_i]
                    jit_i += 1
                    jitter_log = t_rho * jitter_log + innovation
                    jitter = _exp(jitter_log - t_half_sig2)
                jitter_q = jitter**0.25

                while elapsed < dt_eps and retired < finish_line:
                    template = templates[phase_index]
                    if template is None:
                        template = templates[phase_index] = rate_template(
                            phases[phase_index], pstate, timing, constants
                        )
                    if template is not t_cur:
                        t_cur = template
                        t_hz = template.hz
                        t_cpi_core = template.cpi_core
                        t_l2_stall = template.l2_stall_pi
                        t_dram_stall = template.dram_stall_pi
                        t_bytes_pi = template.bytes_pi
                        t_bw_neg_p = template.bw_neg_p
                        t_bus_bw = template.bus_bw
                        t_dcu_occ = template.dcu_occupancy_pi
                        t_decode = template.decode_ratio
                        t_fp_ratio = template.fp_ratio
                        t_l2r = template.l2r_coeff
                        t_c_base = template.c_base
                        t_c_gate = template.c_gate
                        t_c_dpc_f = template.c_dpc_f
                        t_c_fp = template.c_fp
                        t_c_l2 = template.c_l2
                        t_c_bus = template.c_bus
                        t_v2f = template.v2f
                        t_static = template.static_w
                        t_idle_w = template.idle_w
                        t_freq_mhz = template.freq_mhz
                        t_instructions = template.instructions
                        t_phase_end = template.phase_end
                        t_sigma = template.sigma
                        t_rho = template.rho
                        t_jitter_scale = template.jitter_scale
                        t_half_sig2 = template.half_sig2
                        if contended is not None:
                            (t_l2_stall, t_dram_stall, t_bw_neg_p, t_bus_bw,
                             t_dcu_occ) = pkg.fields(
                                contended, phases[phase_index], t_freq_mhz
                            )
                    remaining = total - retired
                    if remaining < 0.0:
                        remaining = 0.0
                    budget = t_instructions - into_phase
                    if remaining < budget:
                        budget = remaining

                    # Inlined resolve_rates + ground_truth_power (bitwise:
                    # min(a, b) is ``b if b < a else a`` for float builtins).
                    cpi_latency = (
                        t_cpi_core / jitter + t_l2_stall + t_dram_stall
                    )
                    ips = t_hz / cpi_latency
                    if t_bytes_pi > 0:
                        ips = (ips**_NEG_P + t_bw_neg_p) ** _NEG_INV_P
                        bus = ips * t_bytes_pi / t_bus_bw
                        if bus > _OCCUPANCY_CAP:
                            bus = _OCCUPANCY_CAP
                    else:
                        bus = 0.0
                    ipc_rate = ips / t_hz
                    dcu_rate = t_dcu_occ * ipc_rate
                    if dcu_rate > DCU_OUTSTANDING_CAP:
                        dcu_rate = DCU_OUTSTANDING_CAP
                    dpc_rate = t_decode * ipc_rate * jitter_q
                    if dpc_rate > DECODE_WIDTH:
                        dpc_rate = DECODE_WIDTH
                    activity = (
                        t_c_base
                        * (
                            1.0
                            - t_c_gate * (dcu_rate if dcu_rate < 1.0 else 1.0)
                        )
                        + t_c_dpc_f * dpc_rate
                        + t_c_fp * (t_fp_ratio * ipc_rate)
                        + t_c_l2 * (t_l2r * ipc_rate)
                        + t_c_bus * bus
                    )
                    if thermal is None:
                        static = t_static
                    else:
                        # Leakage at the package temperature.
                        static = leak_power(
                            pstate.voltage, thermal._temperature_c
                        )
                    full_power = t_v2f * activity + static
                    power = (full_power - static) * duty + static
                    effective_ips = ips * duty
                    seg_time = budget / effective_ips
                    time_left = dt - elapsed
                    if time_left < seg_time:
                        seg_time = time_left
                    seg_instr = effective_ips * seg_time
                    if budget < seg_instr:
                        seg_instr = budget
                    seg_cycles = seg_time * t_freq_mhz * 1e6 * duty

                    cycle_res += seg_cycles
                    whole = int(cycle_res)
                    cycle_res -= whole
                    tsc = (tsc + whole) & _M64
                    if selector0 is not None:
                        if selector0 == 0:
                            rate = dpc_rate
                        elif selector0 == 1:
                            rate = ipc_rate
                        elif selector0 == 2:
                            rate = dcu_rate
                        else:
                            rate = resolve_rates(
                                phases[phase_index], pstate,
                                timing if contended is None
                                else pkg.timing(contended),
                                jitter=jitter,
                            ).events.rate(event0)
                        res0 += rate * seg_cycles
                        increment = int(res0)
                        res0 -= increment
                        pmc0 = (pmc0 + increment) & _M40
                    if selector1 is not None:
                        if selector1 == 0:
                            rate = dpc_rate
                        elif selector1 == 1:
                            rate = ipc_rate
                        elif selector1 == 2:
                            rate = dcu_rate
                        else:
                            rate = resolve_rates(
                                phases[phase_index], pstate,
                                timing if contended is None
                                else pkg.timing(contended),
                                jitter=jitter,
                            ).events.rate(event1)
                        res1 += rate * seg_cycles
                        increment = int(res1)
                        res1 -= increment
                        pmc1 = (pmc1 + increment) & _M40
                    retired += seg_instr
                    into_phase += seg_instr
                    if into_phase >= t_phase_end:
                        into_phase = 0.0
                        phase_index = (phase_index + 1) % n_phases
                    if thermal is not None:
                        thermal.advance(power, seg_time)
                    energy += power * seg_time
                    if not multi:
                        # Inlined meter emit(power, seg_time).
                        remaining_t = seg_time
                        while remaining_t > 0:
                            room = m_interval - bucket_t
                            chunk = remaining_t if remaining_t < room else room
                            bucket_e += power * chunk
                            bucket_t += chunk
                            m_time += chunk
                            remaining_t -= chunk
                            if bucket_t >= close_eps:
                                true_mean = bucket_e / bucket_t
                                true_current = true_mean / supply
                                if batch_meter:
                                    if m_i == _RNG_CHUNK:
                                        m_buf = meter_std(_RNG_CHUNK).tolist()
                                        m_i = 0
                                        m_refills += 1
                                    s_noise = 0.0 + amp_noise * m_buf[m_i]
                                    a_noise = (
                                        0.0 + noise_floor * m_buf[m_i + 1]
                                    )
                                    m_i += 2
                                else:
                                    s_noise = sense_normal(0.0, amp_noise)
                                    a_noise = adc_normal(0.0, noise_floor)
                                v_sense = true_current * realized + s_noise
                                sensed = (v_sense / nominal) * supply
                                noisy = sensed + a_noise
                                clipped = 0.0 if 0.0 > noisy else noisy
                                if full_scale < clipped:
                                    clipped = full_scale
                                measured_w = round(clipped / lsb) * lsb
                                s_time_append(m_time)
                                s_watts_append(measured_w)
                                s_true_append(true_mean)
                                s_dur_append(bucket_t)
                                last_measured_w = measured_w
                                n_samples += 1
                                bucket_e = 0.0
                                bucket_t = 0.0
                        if extra_sinks:
                            for sink in extra_sinks:
                                sink(power, seg_time)
                    tick_instr += seg_instr
                    elapsed += seg_time

                time_s = start_time + elapsed
                mean_power = energy / elapsed if elapsed > 0 else 0.0

                if multi:
                    # ---- lane switch: locals -> objects ----
                    _store(
                        machine, cursor, pmu, time_s, jitter_log, charged,
                        retired, into_phase, phase_index, cycle_res, res0,
                        res1, pmc0, pmc1, tsc,
                    )
                    pkg.jitter[lane] = (jit_buf, jit_i, jit_refills)
                    pkg.finish(
                        lane, elapsed, energy, tick_instr,
                        retired >= finish_line,
                    )

            # ---- accounting ----
            if multi:
                (time_s, duration, elapsed, energy, tick_instr,
                 mean_power) = pkg.end()
                # Inlined meter emit(mean_power, duration): the package
                # mean, once per tick.
                remaining_t = duration
                while remaining_t > 0:
                    room = m_interval - bucket_t
                    chunk = remaining_t if remaining_t < room else room
                    bucket_e += mean_power * chunk
                    bucket_t += chunk
                    m_time += chunk
                    remaining_t -= chunk
                    if bucket_t >= close_eps:
                        true_mean = bucket_e / bucket_t
                        true_current = true_mean / supply
                        if batch_meter:
                            if m_i == _RNG_CHUNK:
                                m_buf = meter_std(_RNG_CHUNK).tolist()
                                m_i = 0
                                m_refills += 1
                            s_noise = 0.0 + amp_noise * m_buf[m_i]
                            a_noise = 0.0 + noise_floor * m_buf[m_i + 1]
                            m_i += 2
                        else:
                            s_noise = sense_normal(0.0, amp_noise)
                            a_noise = adc_normal(0.0, noise_floor)
                        v_sense = true_current * realized + s_noise
                        sensed = (v_sense / nominal) * supply
                        noisy = sensed + a_noise
                        clipped = 0.0 if 0.0 > noisy else noisy
                        if full_scale < clipped:
                            clipped = full_scale
                        measured_w = round(clipped / lsb) * lsb
                        s_time_append(m_time)
                        s_watts_append(measured_w)
                        s_true_append(true_mean)
                        s_dur_append(bucket_t)
                        last_measured_w = measured_w
                        n_samples += 1
                        bucket_e = 0.0
                        bucket_t = 0.0
                for sink in extra_sinks:
                    sink(mean_power, duration)
                res_acc += duration
                pending = not all(pkg.done)
            else:
                res_acc += elapsed
            instructions += tick_instr
            true_energy += energy
            tick_freq = freq

            if hooked:
                # ---- decision boundary: locals -> objects, then the
                # decision block on the objects ----
                if multi:
                    # Each lane stored its core; the lead core's clock
                    # reads the package's.
                    machine._time_s = time_s
                else:
                    _store(
                        machine, cursor, pmu, time_s, jitter_log, charged,
                        retired, into_phase, phase_index, cycle_res, res0,
                        res1, pmc0, pmc1, tsc,
                    )
                _store_meter(power_meter, m_time, bucket_e, bucket_t)
                # The objects are current until the re-read below; an
                # error in between must not overwrite what the hooks did.
                in_decision = True
                if corrupt is not None:
                    corrupt()
                if close_sample is not None:
                    # The lead core's counters, from the locals (what
                    # PMU.snapshot reads from the MSRs).
                    counter_sample = close_sample(elapsed, CounterSnapshot(
                        (event0, event1), (pmc0, pmc1), tsc & _M40, tsc,
                    ))
                elif rt is not None:
                    counter_sample = rt.acquire_sample(sampler, elapsed)
                else:
                    counter_sample = sampler.sample(elapsed)
                measured = (
                    meter_watts[-1]
                    if n_samples > sample_index
                    else mean_power
                )
                if rt is not None:
                    measured = rt.filter_power(measured)
                if track_temp:
                    temperature = (
                        thermal._temperature_c
                        if thermal is not None
                        else None
                    )
                    if injecting:
                        temperature = injector.observe_temperature(
                            temperature, time_s
                        )
                    if rt is not None:
                        temperature = rt.observe_temperature(temperature)
                if rt is not None and (rt.degraded or counter_sample is None):
                    # Fail-safe governor (closed-loop control abandoned)
                    # or no good sample yet (hold rather than guess).
                    target = rt.safe_pstate if rt.degraded else pstate
                else:
                    target = governor.decide(counter_sample, pstate)
                changed = target != pstate
                if changed:
                    if rt is not None:
                        changed = rt.actuate(driver, target)
                    else:
                        driver.set_pstate(target)
                if observe_power is not None:
                    observe_power(measured)
                # Online adaptation folds in the interval that just ran;
                # a model swap takes effect at the next decision.
                if adapting and counter_sample is not None:
                    adapt.observe(counter_sample, pstate, measured, time_s)
                if keep_trace:
                    # The trace keeps the sample the governor was handed
                    # (held over or corrupted under faults).
                    trace_rates_append(
                        dict(counter_sample.rates)
                        if counter_sample is not None
                        else {}
                    )
                if observe:
                    # The record keeps the counters' own sample (a fault
                    # wrapper passes last_sample through to its inner
                    # sampler).
                    raw = sampler.last_sample
                    ticks.add_rates(raw.rates)
                    cycles_append(raw.cycles)
                    target_mhz = target.frequency_mhz
                    if can_estimate and counter_sample is not None:
                        # pstate is still the tick's (re-read below).
                        estimate_w = governor.estimate_power(
                            counter_sample, pstate, target
                        )
                    limit_w = getattr(governor, "power_limit_w", None)
                    if limit_w is None:
                        limit_w = _NAN
            else:
                # ---- sampler (mirrors CounterSampler.sample) ----
                c0 = (pmc0 - pmc0_start) & _M40
                cyc = (tsc - tsc_start) & _M40
                r0 = c0 / cyc if cyc > 0 else 0.0
                measured = (
                    last_measured_w
                    if n_samples > sample_index
                    else mean_power
                )

                # ---- decide (table-driven, bit-identical to decide()) --
                if mode == 0:  # PerformanceMaximizer
                    row = proj_rows[current_index]
                    desired_index = n_states - 1
                    for i in range(n_states):
                        scale, alpha, beta = row[i]
                        if alpha * (r0 * scale) + beta <= budget_w:
                            desired_index = i
                            break
                    if desired_index > current_index:
                        raise_streak = 0
                        pending_index = None
                        target_index = desired_index
                    elif desired_index < current_index:
                        if (
                            pending_index is None
                            or desired_index > pending_index
                        ):
                            pending_index = desired_index
                        raise_streak += 1
                        if raise_streak >= raise_window:
                            target_index = pending_index
                            raise_streak = 0
                            pending_index = None
                        else:
                            target_index = current_index
                    else:
                        raise_streak = 0
                        pending_index = None
                        target_index = current_index
                elif mode == 1:  # PowerSave
                    c1 = (pmc1 - pmc1_start) & _M40
                    r1 = c1 / cyc if cyc > 0 else 0.0
                    dcu_per_ipc = (r1 / r0) if r0 > 0 else _INF
                    core_bound = dcu_per_ipc < dcu_threshold
                    if core_bound:
                        peak = r0 * fastest_mhz * 1e6
                    else:
                        peak = (
                            r0 * fast_factor[current_index]
                            * fastest_mhz * 1e6
                        )
                    target_index = 0
                    for to_mhz, factor, candidate in ascending_rows[
                        current_index
                    ]:
                        if core_bound:
                            throughput = r0 * to_mhz * 1e6
                        else:
                            throughput = r0 * factor * to_mhz * 1e6
                        relative = throughput / peak if peak > 0 else 1.0
                        if relative > floor_plus_eps:
                            target_index = candidate
                            break
                elif mode == 2:  # DemandBasedSwitching
                    if elapsed <= 0:
                        utilization = 1.0
                    else:
                        available = freq_1e6 * elapsed
                        utilization = min(1.0, cyc / available)
                    if utilization >= up_threshold:
                        target_index = (
                            current_index - 1 if current_index > 0 else 0
                        )
                    elif utilization <= down_threshold:
                        target_index = (
                            current_index + 1
                            if current_index < n_states - 1
                            else current_index
                        )
                    else:
                        target_index = current_index
                else:  # StaticClocking / FixedFrequency
                    target_index = static_index

                # ---- actuate (through the real driver: MSR writes, DVFS
                # dead time and transition counts stay exact) ----
                changed = target_index != current_index
                if changed:
                    residency[freq] = res_acc
                    driver.set_pstate(gov_states[target_index])
                    pstate = dvfs.current
                    current_index = state_index[pstate]
                    templates = template_rows[current_index]
                    freq = pstate.frequency_mhz
                    freq_1e6 = freq * 1e6
                    dead_total = dvfs.total_dead_time_s
                    res_acc = residency.get(freq, 0.0)

                if keep_trace:
                    trace_rates_append(
                        {event0: r0, event1: r1} if mode == 1
                        else {event0: r0}
                    )
                if record:
                    temperature = (
                        thermal._temperature_c
                        if thermal is not None
                        else None
                    )
                if observe:
                    rate0_append(r0)
                    if mode == 1:
                        rate1_append(r1)
                    cycles_append(cyc)
                    target_mhz = gov_states[target_index].frequency_mhz
                    if mode == 0:
                        # PerformanceMaximizer.estimate_power from the
                        # projection row (bitwise the same).
                        scale, alpha, beta = row[target_index]
                        estimate_w = alpha * (r0 * scale) + beta

            if record:
                time_append(time_s)
                freq_append(tick_freq)
                measured_append(measured)
                true_append(mean_power)
                instr_append(tick_instr)
                duty_append(duty)
                temp_append(_NAN if temperature is None else temperature)
            if observe:
                interval_append(elapsed)
                target_append(target_mhz)
                estimate_append(estimate_w)
                limit_append(limit_w)
                if changed:
                    transition(time_s, tick_freq, target_mhz)

            if hooked:
                # ---- objects -> locals: what the decision block may
                # have changed ----
                if dvfs.current is not pstate:
                    residency[freq] = res_acc
                    pstate = dvfs.current
                    current_index = state_index[pstate]
                    templates = template_rows[current_index]
                    freq = pstate.frequency_mhz
                    res_acc = residency.get(freq, 0.0)
                # Retry backoff and stalls charge dead time even when
                # the p-state holds.
                dead_total = dvfs.total_dead_time_s
                duty = throttle.duty
                event0, event1, selector0, selector1 = _programmed(pmu)
                res0, res1 = pmu._residuals
                pmc0 = rdmsr(IA32_PMC0)
                pmc1 = rdmsr(IA32_PMC1)
                in_decision = False
        completed = True
    finally:
        # Locals -> objects (also on the max_seconds raise and any
        # unexpected error, so nothing is ever left torn).
        if multi:
            pkg.jitter[lane] = (jit_buf, jit_i, jit_refills)
            pkg.rewind()
        elif jit_buf is not None:
            _rewind(machine._rng, jit_state0, jit_i, jit_refills)
        if m_buf is not None:
            _rewind(sense._rng, m_state0, m_i, m_refills)
        if not in_decision:
            _store(
                machine, cursor, pmu, time_s, jitter_log, charged, retired,
                into_phase, phase_index, cycle_res, res0, res1, pmc0, pmc1,
                tsc,
            )
            _store_meter(power_meter, m_time, bucket_e, bucket_t)
        if res_acc or freq in residency:
            residency[freq] = res_acc
        if not hooked:
            sampler._last = pmu.snapshot()
        if mode == 0:
            governor._raise_streak = raise_streak
            governor._pending_raise = (
                gov_states[pending_index]
                if pending_index is not None
                else None
            )
        if observer is not None and not completed:
            # A failed run still publishes the ticks it ran; limit_w is
            # the last column a tick appends, so a torn tick is dropped.
            ticks.truncate(len(ticks.limit_w))
            observer.finish(st)

    st.instructions = instructions
    st.true_energy = true_energy
    return controller._finish_run(st, tel, observer)
