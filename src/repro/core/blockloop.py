"""The monitor->estimate->control loop: one fused tick kernel.

Every :class:`~repro.core.controller.PowerManagementController` run,
single-core or multicore, goes through :func:`run_fast`.  One Python
loop holds the machine tick (segment math from the cached
:class:`~repro.platform.blockstep.RateTemplate` rows), the inlined meter
and PMU updates and the governor's decision, all in local variables;
no ``ResolvedRates`` or ``EventRates`` is built per tick.  It is the
only place simulated time advances: model training and every other
characterization run a controller too.

The decision is one of six modes, selected by the run's own inputs:

* **Table modes** -- a stock PerformanceMaximizer or PowerSave reads its
  precomputed projection table
  (:meth:`PerformanceMaximizer.projection_table` /
  :meth:`PowerSave.projection_table`), DemandBasedSwitching steps on
  utilization, StaticClocking / FixedFrequency return a constant
  target index, and EnergyOptimalSearch reads its objective's rows
  (:meth:`EnergyOptimalSearch._rows`).  An
  AdaptivePerformanceMaximizer reads PerformanceMaximizer's table plus
  the offsets it learns from measured power, which the kernel keeps by
  p-state index, folds each tick into and writes back at the run's
  exit.  The sampler's arithmetic is inlined too; for
  EnergyOptimalSearch that includes its
  :class:`~repro.core.sampling.MultiplexedCounterSampler`'s rotation of
  two event groups through the counter locals.  These run when the
  governor is one of those exact types with its own sampler, on one
  core or a multicore package, and the run has no per-tick hook.  Online
  adaptation is not a hook: a PerformanceMaximizer's
  :class:`~repro.adaptation.manager.AdaptationManager` folds in each
  tick's frequency, DPC, measured power and time after the table
  decision, and the kernel re-reads the projection table and budget only
  when the manager says the governor changed.
* **Hook mode** -- every other run (resilience, fault injection,
  constraint schedules, other multiplexed samplers, governor subclasses,
  any other governor).  At each decision
  boundary the kernel writes its locals back to the machine, PMU and
  meter, runs the decision block on the real objects (schedule
  delivery, the sampler, the resilience runtime, ``governor.decide``,
  the driver, ``observe_power``, ``adapt.observe``), then re-reads what
  those may have changed: p-state, dead time, duty cycle, PMU
  programming.  An exact :class:`~repro.core.sampling.CounterSampler`
  (or each group of a
  :class:`~repro.core.sampling.MultiplexedCounterSampler`) closes its
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
with N > 1 cores runs as N lanes of the same machine tick.  Each lane's
machine, cursor, PMU and counter locals live in a kernel record
(:class:`_Package`) between ticks; a lane switch unpacks the record into
the locals and packs them back, and the lead core's state stays in the
locals between ticks.  Each tick first prices every active core's
uncontended bus demand from those records and takes each lane's
contended ``(dram_latency_ns, bus_bandwidth)`` from
:meth:`~repro.multicore.contention.ContentionModel.effective_scalars`
(None: no pressure, the base timing).  Then each unfinished lane runs
the tick body, lead core last.  The cores share one p-state, so the
package keeps one p-state index; after a decision moves it (or after
any hook decision) each lane's p-state, dead time and duty cycle are
re-read once.  Every lane reads the cached base template rows of that
p-state; a contended lane's five timing-dependent fields are recomputed
straight into the locals (:meth:`_Package.fields`, bitwise
:func:`~repro.platform.blockstep._timing_fields`) on the lane switch and
at each phase it crosses, so no timing or template object is built per
lane per tick.  A lane's segments skip the meter: finished and idle
cores are padded with idle power to the slowest core's duration, and
the package mean goes once through the inlined meter body.  The
decision runs on the lead core's counters and the package driver, in a
table mode or in hook mode by the same rule as a single core's.  The
objects are written from the records at the run's exit (also on a
raise) and, in hook mode, before each decision.  A single-core run (or
a one-core package) is one lane with no switch.

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
from operator import attrgetter

from repro.core.governors.adaptive_pm import (
    AdaptivePerformanceMaximizer,
    nearest_visited,
)
from repro.core.governors.demand_based import DemandBasedSwitching
from repro.core.governors.energy_optimal import EnergyOptimalSearch
from repro.core.governors.performance_maximizer import PerformanceMaximizer
from repro.core.governors.powersave import PowerSave
from repro.core.governors.static import StaticClocking
from repro.core.governors.unconstrained import FixedFrequency
from repro.core.sampling import (
    CounterSample,
    CounterSampler,
    MultiplexedCounterSampler,
)
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
    _bytes_pi,
    rate_template,
)
from repro.platform.events import Event
from repro.platform.pipeline import (
    DCU_OUTSTANDING_CAP,
    DECODE_WIDTH,
    _OCCUPANCY_CAP,
    resolve_rates,
)
from repro.platform.power import idle_power
from repro.telemetry.bus import ConstraintChanged
from repro.units import NS

#: Gaussian pre-draws per refill (even, so the meter's
#: two-variates-per-sample reads never straddle a refill).
_RNG_CHUNK = 1024

_INF = float("inf")
_NAN = float("nan")

#: Selector of a programmed event the kernel does not compute inline.
_RESOLVED = len(_SELECTOR)

#: Governors with a table-driven decision mode over one
#: :class:`CounterSampler`.  Exact-type checks: subclasses may override
#: anything.  An AdaptivePerformanceMaximizer decides from the
#: PerformanceMaximizer's table plus the offsets it learns, which the
#: kernel keeps by p-state index (:func:`_offset_slots`).
_GOVERNORS = (
    PerformanceMaximizer,
    AdaptivePerformanceMaximizer,
    PowerSave,
    DemandBasedSwitching,
    StaticClocking,
    FixedFrequency,
)

#: EnergyOptimalSearch's two counter groups: counter 0 counts retired
#: instructions in both, counter 1 alternates between decoded
#: instructions (DPC) and outstanding DCU misses.
_EO_GROUPS = EnergyOptimalSearch.EVENT_GROUPS
_EO_DPC = _EO_GROUPS[0][1]
_EO_DCU = _EO_GROUPS[1][1]
#: The rate selector of each rotation's counter 1.
_EO_DPC_SELECTOR = _SELECTOR[_EO_DPC]
_EO_DCU_SELECTOR = _SELECTOR[_EO_DCU]

#: The rates online adaptation reads from a hook-mode sample.
_DPC = Event.INST_DECODED
_IPC = Event.INST_RETIRED
_DCU = Event.DCU_MISS_OUTSTANDING

#: The PowerSave projection fields its table mode reads.
_PS_FIELDS = attrgetter("fastest_mhz", "fast_factor", "ascending")


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
    stock table governor over the machine's p-states with the sampler
    the controller gave it, and no per-tick hook."""
    governor = st.governor
    sampler = st.sampler
    if type(governor) is EnergyOptimalSearch:
        own_sampler = (
            type(sampler) is MultiplexedCounterSampler
            and sampler.groups == _EO_GROUPS
        )
    else:
        own_sampler = (
            type(governor) in _GOVERNORS and type(sampler) is CounterSampler
        )
    return (
        own_sampler
        and st.rt is None
        and not st.injecting
        and st.schedule is None
        and tuple(governor.table) == tuple(st.lanes[0].config.table)
    )


def _nearest_slots(learned, states):
    """Per p-state of ``states``: the slot of the kernel's offsets list
    whose correction its estimate takes -- the index of the
    :func:`nearest_visited` state of ``learned`` (an adaptive PM's
    offsets, keyed by frequency in visit order), or the 0.0 slot past
    the end while none is visited."""
    if not learned:
        return [len(states)] * len(states)
    index = {state.frequency_mhz: i for i, state in enumerate(states)}
    return [
        index[nearest_visited(learned, state.frequency_mhz)]
        for state in states
    ]


def _offset_slots(governor, states):
    """An AdaptivePerformanceMaximizer's learned offsets as the kernel
    keeps them: a list by p-state index of ``states`` (0.0 where
    unvisited, then one 0.0 slot), and :func:`_nearest_slots`."""
    learned = governor._offsets
    offsets = [learned.get(state.frequency_mhz, 0.0) for state in states]
    offsets.append(0.0)
    return offsets, _nearest_slots(learned, states)


def _store_offsets(governor, states, offsets, sampler, last_mhz):
    """Leave an AdaptivePerformanceMaximizer as ``decide`` and
    ``observe_power`` leave it: its offsets (the governor's dict holds
    the visit order, the kernel the values) and, once a tick has run at
    ``last_mhz``, the last decision's state and sample."""
    index = {state.frequency_mhz: i for i, state in enumerate(states)}
    learned = governor._offsets
    for mhz in learned:
        learned[mhz] = offsets[index[mhz]]
    if last_mhz is not None:
        governor._last_state = states[index[last_mhz]]
        governor._last_sample = sampler.last_sample


def _energy_rows(governor, states):
    """:meth:`EnergyOptimalSearch._rows` per state of ``states`` (None
    where ``decide`` finds no row and scans the objective)."""
    rows = governor._rows()
    return [rows.get(state.frequency_mhz) for state in states]


def _close_sampler(sampler, event1, closed):
    """Leave a table-mode run's sampler as its ``close`` leaves it.

    ``closed`` is None when no interval closed; otherwise the last
    interval's ``(interval_s, cycles, rate0, rate1, counts)``, where
    ``rate1`` is None for a one-event sampler and ``counts`` -- the
    ``(pmc0, pmc1, tsc)`` the interval closed at -- is given only for
    EnergyOptimalSearch's rotation.  The kernel rotated its two groups
    in locals and left the PMU programmed with the group whose counter
    1 counts ``event1``; that group's ``last_sample`` (two closes ago)
    is not kept.
    """
    if type(sampler) is MultiplexedCounterSampler:
        index = 0 if event1 is _EO_DPC else 1
        sampler._index = index
        current = sampler._samplers[index]
        group = sampler._samplers[1 - index]
    else:
        current = group = sampler
    current._last = current._pmu.snapshot()
    if closed is None:
        return
    interval_s, cycles, rate0, rate1, counts = closed
    events = group.events
    if counts is not None:
        pmc0, pmc1, tsc = counts
        group._last = CounterSnapshot(events, (pmc0, pmc1), tsc & _M40, tsc)
    rates = {events[0]: rate0}
    if rate1 is not None:
        rates[events[1]] = rate1
    group.last_sample = sampler.last_sample = CounterSample(
        interval_s=interval_s, cycles=float(cycles), rates=rates
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


def _lane_record(lane):
    """A :func:`_lane`'s kernel record, read from its objects: the
    kernel's lane-switch locals in their unpack order -- :func:`_load`'s,
    the jitter chunk buffer ``(jit_buf, jit_i, jit_refills)``, then the
    core's thermal model, jitter generator, instruction budget and
    finish line."""
    (machine, cursor, pmu, rdmsr, dvfs, throttle, thermal, mach_std, total,
     finish_line, _) = lane
    return [
        *_load(machine, cursor, pmu, rdmsr, dvfs, throttle),
        None, _RNG_CHUNK, 0, thermal, mach_std, total, finish_line,
    ]


#: The slots of a kernel record that :class:`_Package` reads or
#: refreshes between ticks.
_JITTER_LOG = 1
_DEAD_TOTAL = 3
_PHASE_INDEX = 4
_PSTATE = 7
_DUTY = 8
_JITTER_BUF = slice(19, 22)


class _Package:
    """A multicore package's lane state and bookkeeping.

    Each lane's locals live in a kernel record (:func:`_lane_record`)
    between ticks; the lead core's state stays in the kernel's own
    locals between ticks, and :meth:`begin` takes it as its record.  The
    objects are written from the records only by :meth:`store`: at the
    run's exit, and in hook mode before each decision.

    :meth:`begin` prices every active core's uncontended bus demand from
    the records and hands out this tick's contended ``(dram_latency_ns,
    bus_bandwidth)`` per lane; the kernel steps each lane and records
    its ``(elapsed, energy, instructions)`` in :attr:`stepped`;
    :meth:`end` pads finished and idle cores with idle power and
    advances package time, and the kernel meters the package mean once
    -- what the lock-step ``MulticoreMachine`` tick did.

    The cores share one p-state (one PLL): the package keeps its index,
    the lead core's, as the kernel's ``current_index``.
    """

    def __init__(self, package, template_rows, states, phases, hooked):
        self.package = package
        self.cores = package.cores
        #: One :func:`_lane` per active core; core 0 leads.
        self.lanes = [_lane(core) for core in self.cores[: package.threads]]
        config = self.cores[0].config
        self.base = config.timing
        self.constants = config.power
        self.contention = package.config.contention
        self.ceiling = self.contention.ceiling(self.base)
        self.rows = template_rows
        self.phases = phases
        #: Idle power per p-state index (the padding of :meth:`end`).
        self.idle_w = [idle_power(state, self.constants) for state in states]
        self.hooked = hooked
        #: The p-state index of the last :meth:`begin`.
        self.index = None
        #: Per phase index: the contention-independent parts of
        #: :meth:`fields`.
        self.parts = [None] * len(phases)
        self.done = [lane[1].finished for lane in self.lanes]
        #: The lanes a tick steps: the unfinished ones, lead core last
        #: (its locals are the ones the package decides on, also once
        #: it has finished).
        self.order = self._order()
        #: Per lane, its kernel record (the lead's is set by begin).
        self.state = [None] + [_lane_record(lane) for lane in self.lanes[1:]]
        #: Per lane: None (no pressure, the base timing) or its contended
        #: (dram_latency_ns, bus_bandwidth) this tick.
        self.timings = ()
        #: Per core: the lane's (elapsed, energy, instructions) this
        #: tick, None for a core not stepped.
        self.stepped = []

    def begin(self, index, lead):
        """Start a package tick at p-state index ``index``; ``lead`` is
        the lead core's record.  Sets this tick's per-lane timings and
        returns the lanes to step (:attr:`order`)."""
        state = self.state
        state[0] = lead
        if index != self.index or self.hooked:
            # A decision moved the package p-state (or ran hooks on the
            # objects): re-read each other lane's p-state, dead time and
            # duty cycle once.
            self.index = index
            for lane, record in zip(self.lanes[1:], state[1:]):
                dvfs = lane[4]
                record[_PSTATE] = dvfs.current
                record[_DEAD_TOTAL] = dvfs.total_dead_time_s
                record[_DUTY] = lane[5].duty
        row = self.rows[index]
        demands = []
        for record, done in zip(state, self.done):
            if done:
                demands.append(0.0)
                continue
            # The bus demand at the base timing: the current phase and
            # p-state, the previous tick's jitter.
            phase = record[_PHASE_INDEX]
            template = row[phase]
            if template is None:
                template = row[phase] = rate_template(
                    self.phases[phase], record[_PSTATE], self.base,
                    self.constants,
                )
            demands.append(_bus_demand(template, record[_JITTER_LOG]))
        self.timings = self.contention.effective_scalars(self.base, demands)
        self.note_bus(sum(demands))
        self.stepped = [None] * len(self.cores)
        return self.order

    def _order(self):
        order = [
            k for k in range(len(self.lanes) - 1, 0, -1) if not self.done[k]
        ]
        order.append(0)
        return order

    def finish(self, lane):
        """Mark ``lane`` finished: it is stepped no more."""
        self.done[lane] = True
        self.order = self._order()

    def note_bus(self, demand):
        """Fold one tick's total bus demand into the peak utilization
        (:meth:`ContentionModel.utilization`)."""
        bus = demand / self.ceiling
        if bus > self.package.peak_bus_utilization:
            self.package.peak_bus_utilization = bus

    def fields(self, contended, index, hz):
        """The five timing-dependent template fields of phase ``index``
        at clock ``hz`` and contended ``(dram_latency_ns,
        bus_bandwidth)``: :func:`_timing_fields`, bitwise, with the
        phase's contention-independent parts cached."""
        parts = self.parts[index]
        if parts is None:
            phase = self.phases[index]
            l2_hit_mpi = max(0.0, phase.l1_mpi - phase.l2_mpi)
            l2_hit = l2_hit_mpi * self.base.l2_latency_cycles
            parts = self.parts[index] = (
                l2_hit / phase.l2_mlp, l2_hit, phase.l2_mpi, phase.mlp,
                _bytes_pi(phase),
            )
        l2_stall, l2_hit, l2_mpi, mlp, bytes_pi = parts
        dram_latency_ns, bus_bandwidth = contended
        # ns_to_cycles(dram_latency_ns, freq_mhz)
        dram_cycles = dram_latency_ns * NS * hz
        return (
            l2_stall,
            l2_mpi * dram_cycles / mlp,
            (bus_bandwidth / bytes_pi) ** _NEG_P if bytes_pi > 0 else 0.0,
            bus_bandwidth,
            l2_hit + l2_mpi * dram_cycles,
        )

    def timing(self, contended):
        """A contended lane's timing as a :class:`MemoryTiming` (for the
        rare ``resolve_rates`` fallback)."""
        return replace(
            self.base,
            dram_latency_ns=contended[0],
            bus_bandwidth_bytes_per_s=contended[1],
        )

    def end(self):
        """Close the package tick.  Returns the package time, the tick's
        duration, the lead core's sample interval, the package energy
        and instructions, and the mean power to meter."""
        stepped = self.stepped
        duration = 0.0
        for out in stepped:
            if out is not None and out[0] > duration:
                duration = out[0]
        idle_w = self.idle_w[self.index]
        energy = 0.0
        instructions = 0.0
        # Core order, as the lock-step tick summed it.
        for out in stepped:
            if out is not None:
                pad = duration - out[0]
                energy += out[1]
                instructions += out[2]
            else:
                pad = duration
            if pad > 1e-15:
                energy += idle_w * pad
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

    def store(self):
        """Write every lane's record to its objects."""
        for lane, record in zip(self.lanes, self.state):
            (time_s, jitter_log, charged, _, phase_index, into_phase,
             retired, _, _, _, _, _, _, cycle_res, res0, res1, pmc0, pmc1,
             tsc) = record[:19]
            _store(
                lane[0], lane[1], lane[2], time_s, jitter_log, charged,
                retired, into_phase, phase_index, cycle_res, res0, res1,
                pmc0, pmc1, tsc,
            )

    def rewind(self):
        """Rewind every lane's jitter generator (see :func:`run_fast`)."""
        for lane, record in zip(self.lanes, self.state):
            buf, drawn, refills = record[_JITTER_BUF]
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
    # One compare per tick covers the horizon and the runaway guard:
    # time_s > max_seconds is time_s >= nextafter(max_seconds, inf).
    stop_s = min(st.until_s, math.nextafter(st.max_seconds, _INF))
    keep_trace = st.keep_trace
    observe = tel is not None and tel.enabled
    # The per-tick columns are kept for the telemetry record and the trace.
    record = observe or keep_trace
    hooked = not _table_mode(st)
    observe_power = getattr(governor, "observe_power", None)

    # Lane 0 is the lead core: the one the governor samples.
    (machine, cursor, pmu, rdmsr, dvfs, throttle, thermal, mach_std, total,
     finish_line, jit_state0) = _lane(st.lanes[0])
    # Every shard of a split workload runs the same phase cycle.
    phases = cursor._workload.phases
    n_phases = len(phases)
    dt = machine.config.tick_s
    dt_eps = dt - 1e-12
    timing = machine.config.timing
    # A contended lane's (dram_latency_ns, bus_bandwidth); None: the
    # base timing.
    contended = None
    constants = machine.config.power
    leak_power = constants.leakage.power
    _exp = math.exp

    states = tuple(machine.config.table)
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
    elif isinstance(governor, PerformanceMaximizer):
        # A stock or an adaptive PM (no other PM takes a table mode).
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
        if type(governor) is AdaptivePerformanceMaximizer:
            # Its decision skips the stock scan and takes the scan's
            # `else`, which adds the learned offsets.
            pm_scan = ()
            gain = governor._gain
            offsets, nearest = _offset_slots(governor, gov_states)
        else:
            pm_scan = range(n_states)
            offsets = None
    elif type(governor) is PowerSave:
        mode = 1
        fastest_mhz, fast_factor, ascending_rows = _PS_FIELDS(
            governor.projection_table()
        )
        floor_plus_eps = governor._floor + 1e-12
        dcu_threshold = governor._model.dcu_threshold
    elif type(governor) is DemandBasedSwitching:
        mode = 2
        up_threshold = governor._up
        down_threshold = governor._down
    elif type(governor) is EnergyOptimalSearch:
        mode = 4
        # decide()'s objective rows per current p-state; the governor
        # keeps its last-known DPC and DCU itself.
        proj_rows = _energy_rows(governor, states)
        dcu_threshold = governor._performance.dcu_threshold
    else:  # StaticClocking / FixedFrequency: one constant target
        mode = 3
        static_index = state_index[governor._pstate]
    if not hooked:
        # No interval closed yet (see _close_sampler).
        cyc = None

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
    meter_std = sense._rng.standard_normal
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
        pkg = _Package(st.machine, template_rows, states, phases, hooked)
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
        if not hooked and mode != 4:
            ticks.rates[event0] = array("d")
            rate0_append = ticks.rates[event0].append
            if mode == 1:
                ticks.rates[event1] = array("d")
                rate1_append = ticks.rates[event1].append
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
                        f"{st.workload_name} under {governor.name} exceeded "
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
                    # ---- the lead core's locals -> its record ----
                    tick_lanes = pkg.begin(current_index, [
                        time_s, jitter_log, charged, dead_total, phase_index,
                        into_phase, retired, pstate, duty, event0, event1,
                        selector0, selector1, cycle_res, res0, res1, pmc0,
                        pmc1, tsc, jit_buf, jit_i, jit_refills, thermal,
                        mach_std, total, finish_line,
                    ])
                else:
                    # One core: no contention, but the package still
                    # reports its bus utilization.
                    template = templates[phase_index]
                    if template is None:
                        template = templates[phase_index] = rate_template(
                            phases[phase_index], pstate, timing, constants
                        )
                    pkg.note_bus(_bus_demand(template, jitter_log))
            for lane in tick_lanes:
                if multi:
                    # ---- lane switch: the lane's record -> locals ----
                    (time_s, jitter_log, charged, dead_total, phase_index,
                     into_phase, retired, pstate, duty, event0, event1,
                     selector0, selector1, cycle_res, res0, res1, pmc0, pmc1,
                     tsc, jit_buf, jit_i, jit_refills, thermal, mach_std,
                     total, finish_line) = pkg.state[lane]
                    if pkg.done[lane]:
                        # A finished lead core is loaded for the decision
                        # only: its interval counts nothing, and it
                        # reports no temperature or throttling.
                        pmc0_start = pmc0
                        pmc1_start = pmc1
                        tsc_start = tsc
                        thermal = None
                        duty = 1.0
                        continue
                    # Every lane reads the base rows of the package
                    # p-state; a contended lane overrides its
                    # timing-dependent fields on each switch.
                    contended = pkg.timings[lane]
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
                            contended, phase_index, t_hz
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
                                v_sense = (
                                    true_mean / supply * realized + s_noise
                                )
                                noisy = (v_sense / nominal) * supply + a_noise
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
                    jitter_log = t_rho * jitter_log + (
                        0.0 + t_jitter_scale * jit_buf[jit_i]
                    )
                    jit_i += 1
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
                                contended, phase_index, t_hz
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
                                v_sense = (
                                    true_mean / supply * realized + s_noise
                                )
                                noisy = (v_sense / nominal) * supply + a_noise
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
                    pkg.stepped[lane] = (elapsed, energy, tick_instr)
                    if retired >= finish_line:
                        pkg.finish(lane)
                    if lane:
                        # ---- lane switch: locals -> the lane's record
                        # (the lead core's stay in the locals) ----
                        pkg.state[lane] = [
                            time_s, jitter_log, charged, dead_total,
                            phase_index, into_phase, retired, pstate, duty,
                            event0, event1, selector0, selector1, cycle_res,
                            res0, res1, pmc0, pmc1, tsc, jit_buf, jit_i,
                            jit_refills, thermal, mach_std, total,
                            finish_line,
                        ]

            # ---- accounting ----
            if multi:
                # The lead core's clock reads the package's.
                (time_s, duration, elapsed, energy, tick_instr,
                 mean_power) = pkg.end()
                if hooked:
                    # Hook mode decides on the objects: every lane's
                    # record is written to them first.
                    pkg.state[0] = [
                        time_s, jitter_log, charged, dead_total, phase_index,
                        into_phase, retired, pstate, duty, event0, event1,
                        selector0, selector1, cycle_res, res0, res1, pmc0,
                        pmc1, tsc, jit_buf, jit_i, jit_refills, thermal,
                        mach_std, total, finish_line,
                    ]
                    pkg.store()
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
                        v_sense = true_mean / supply * realized + s_noise
                        noisy = (v_sense / nominal) * supply + a_noise
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
                if not multi:
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
                # Temperature is only read when someone consumes it.
                if record or injecting or rt is not None:
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
                # Online adaptation folds in the interval that just ran
                # (a multiplexed group without DPC has nothing to fold);
                # a model swap takes effect at the next decision.
                if (
                    adapting
                    and counter_sample is not None
                    and _DPC in counter_sample.rates
                ):
                    adapt.observe(
                        freq, counter_sample.rates[_DPC], measured, time_s,
                        counter_sample.rates.get(_IPC),
                        counter_sample.rates.get(_DCU),
                    )
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
                    for i in pm_scan:
                        scale, alpha, beta = row[i]
                        if alpha * (r0 * scale) + beta <= budget_w:
                            desired_index = i
                            break
                    else:
                        # No row fit, or an adaptive PM (pm_scan empty).
                        if offsets is not None:
                            # AdaptivePerformanceMaximizer: each row's
                            # estimate plus the offset of the nearest
                            # visited state, clipped at 0 (decide) ...
                            for i in range(n_states):
                                scale, alpha, beta = row[i]
                                correction = offsets[nearest[i]]
                                if (
                                    alpha * (r0 * scale) + beta
                                    + (
                                        correction if correction > 0.0
                                        else 0.0
                                    )
                                    <= budget_w
                                ):
                                    desired_index = i
                                    break
                            # ... then the tick's error against its own
                            # state's estimate, folded into that state's
                            # offset (observe_power).
                            scale, alpha, beta = row[current_index]
                            offsets[current_index] += gain * (
                                measured - (alpha * (r0 * scale) + beta)
                                - offsets[current_index]
                            )
                            if nearest[current_index] != current_index:
                                # A first visit: the governor's dict keeps
                                # the visit order (the tie rule's).
                                governor._offsets[freq] = (
                                    offsets[current_index]
                                )
                                nearest = _nearest_slots(
                                    governor._offsets, gov_states
                                )
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
                    # Online adaptation folds in the interval that just
                    # ran.  The manager writes only the governor and its
                    # registry, nothing the driver touches, so folding it
                    # in before the actuation below is indistinguishable
                    # from hook mode's decide -> actuate -> adapt.
                    if adapting and adapt.observe(
                        freq, r0, measured, time_s
                    ):
                        # A model swap, rollback or guardband move: the
                        # next decision, and this tick's observed
                        # estimate, read the governor's new table.
                        proj_rows = governor.projection_table().rows
                        budget_w = governor._limit - governor._guardband
                        row = proj_rows[current_index]
                        if offsets is not None and not governor._offsets:
                            # swap_model dropped the learned offsets.
                            offsets, nearest = _offset_slots(
                                governor, gov_states
                            )
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
                        utilization = min(1.0, cyc / (freq_1e6 * elapsed))
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
                elif mode == 4:  # EnergyOptimalSearch
                    c1 = (pmc1 - pmc1_start) & _M40
                    r1 = c1 / cyc if cyc > 0 else 0.0
                    # The closed group's counter 1 updates the governor's
                    # last-known DPC or DCU; r0 is the IPC of both.
                    if event1 is _EO_DPC:
                        governor._dpc = r1
                    else:
                        governor._dcu = r1
                    dpc = governor._dpc
                    target_index = current_index
                    if not (r0 <= 0 or dpc <= 0):
                        dcu_per_ipc = governor._dcu / r0
                        row = proj_rows[current_index]
                        if row is None or dcu_per_ipc < 0:
                            # decide()'s objective scan.
                            target_index = state_index[
                                governor._scan(r0, pstate)
                            ]
                        else:
                            core_bound = dcu_per_ipc < dcu_threshold
                            best = None
                            for i in range(n_states):
                                scale, alpha, beta, to_mhz, factor = row[i]
                                power = alpha * (dpc * scale) + beta
                                if core_bound:
                                    throughput = r0 * to_mhz * 1e6
                                else:
                                    throughput = r0 * factor * to_mhz * 1e6
                                value = (
                                    _INF if throughput <= 0
                                    else power / throughput
                                )
                                if best is None or value < best:
                                    best = value
                                    target_index = i
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
                        {event0: r0, event1: r1} if mode == 1 or mode == 4
                        else {event0: r0}
                    )
                if record:
                    temperature = (
                        thermal._temperature_c
                        if thermal is not None
                        else None
                    )
                if observe:
                    if mode == 4:
                        ticks.add_rates({event0: r0, event1: r1})
                    else:
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
                        if offsets is not None:
                            # The adaptive PM's, with the updated offsets.
                            correction = offsets[nearest[target_index]]
                            estimate_w += (
                                correction if correction > 0.0 else 0.0
                            )
                if mode == 4:
                    # ---- rotate (MultiplexedCounterSampler: program the
                    # next group; PMU.program clears its counters) ----
                    if event1 is _EO_DPC:
                        event1 = _EO_DCU
                        selector1 = _EO_DCU_SELECTOR
                    else:
                        event1 = _EO_DPC
                        selector1 = _EO_DPC_SELECTOR
                    pmc0 = pmc1 = 0
                    res0 = res1 = 0.0

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
            # The locals are lane `lane`'s: the lead core's, or a lane's
            # torn by an unexpected error.
            pkg.state[lane] = [
                time_s, jitter_log, charged, dead_total, phase_index,
                into_phase, retired, pstate, duty, event0, event1, selector0,
                selector1, cycle_res, res0, res1, pmc0, pmc1, tsc, jit_buf,
                jit_i, jit_refills, thermal, mach_std, total, finish_line,
            ]
            pkg.rewind()
        elif jit_buf is not None:
            _rewind(machine._rng, jit_state0, jit_i, jit_refills)
        if m_buf is not None:
            _rewind(sense._rng, m_state0, m_i, m_refills)
        if mode == 4:
            # The rotation's programming of the lead core's PMU; its
            # counts are the locals stored next.
            sampler._samplers[0]._pmu.program_events((event0, event1))
        if not in_decision:
            if multi:
                pkg.store()
            else:
                _store(
                    machine, cursor, pmu, time_s, jitter_log, charged,
                    retired, into_phase, phase_index, cycle_res, res0, res1,
                    pmc0, pmc1, tsc,
                )
            _store_meter(power_meter, m_time, bucket_e, bucket_t)
        if res_acc or freq in residency:
            residency[freq] = res_acc
        if not hooked:
            _close_sampler(sampler, event1, None if cyc is None else (
                elapsed, cyc, r0, r1 if mode == 1 or mode == 4 else None,
                (
                    (pmc0_start + c0) & _M40, (pmc1_start + c1) & _M40, tsc
                ) if mode == 4 else None,
            ))
        if mode == 0:
            governor._raise_streak = raise_streak
            governor._pending_raise = (
                gov_states[pending_index]
                if pending_index is not None
                else None
            )
            if offsets is not None:
                _store_offsets(
                    governor, gov_states, offsets, sampler,
                    None if cyc is None else tick_freq,
                )
        if observer is not None and not completed:
            # A failed run still publishes the ticks it ran; limit_w is
            # the last column a tick appends, so a torn tick is dropped.
            ticks.truncate(len(ticks.limit_w))
            observer.finish(st)

    st.instructions = instructions
    st.true_energy = true_energy
    return controller._finish_run(st, tel, observer)
