"""The fused monitor->estimate->control loop (the controller fast path).

``PowerManagementController._run_loop`` pays for generality: every 10 ms
tick builds a ``TickRecord``, a ``ResolvedRates``, a ``CounterSample``
and several dict/dataclass intermediates.  For the common experiment
configuration -- stock :class:`~repro.platform.machine.Machine`, stock
:class:`~repro.core.sampling.CounterSampler`, one inline-able
:class:`~repro.measurement.power_meter.PowerMeter`, no fault injection,
no online adaptation, no constraint schedule, telemetry off --
:func:`run_fast` runs the same loop as one fused kernel: the machine
tick (segment math from the cached
:class:`~repro.platform.blockstep.RateTemplate` rows), the inlined meter
and PMU updates, the counter-sampler arithmetic and a table-driven
governor decision, all in local variables, with object state synced
only at checkpoint boundaries and loop exit.

The decision is one of four modes: PerformanceMaximizer and PowerSave
read their precomputed projection tables
(:meth:`PerformanceMaximizer.projection_table` /
:meth:`PowerSave.projection_table`), DemandBasedSwitching steps on
utilization, and StaticClocking / FixedFrequency return a constant
target index.

**Bit-identical contract.**  The kernel replicates the scalar loop's
RNG draws, float operation order and side effects exactly;
``RunResult`` digests and checkpoint contents are indistinguishable
from the scalar path's (``tests/core/test_block_equivalence.py``).
Anything the fast path cannot replicate exactly -- resilience runtimes,
fault injection, adaptation probation, multiplexed samplers, thermal
models, wrapped drivers/meters, instrumented telemetry, exotic
governors -- fails :func:`eligible` and falls back to the scalar loop.

Kill switch: set module flag ``FAST_LOOP = False`` (tests monkeypatch
this) to send every run through the scalar reference loop.
"""

from __future__ import annotations

import math

from repro.core.governors.demand_based import DemandBasedSwitching
from repro.core.governors.performance_maximizer import PerformanceMaximizer
from repro.core.governors.powersave import PowerSave
from repro.core.governors.static import StaticClocking
from repro.core.governors.unconstrained import FixedFrequency
from repro.core.sampling import CounterSampler
from repro.errors import ExperimentError
from repro.drivers.msr import (
    IA32_PMC0,
    IA32_PMC1,
    IA32_TIME_STAMP_COUNTER,
)
from repro.measurement.power_meter import PowerSample
from repro.platform.blockstep import (
    _M40,
    _M64,
    _NEG_INV_P,
    _NEG_P,
    _SELECTOR,
    block_capable,
    inline_meter,
    rate_template,
)
from repro.platform.pipeline import (
    DCU_OUTSTANDING_CAP,
    DECODE_WIDTH,
    _OCCUPANCY_CAP,
)

#: Master switch for the fused loop (tests monkeypatch this).
FAST_LOOP = True

#: Gaussian pre-draws per refill on checkpointer-free runs (even, so the
#: meter's two-variates-per-sample reads never straddle a refill).
_RNG_CHUNK = 1024

_INF = float("inf")

#: Governors whose decide the fused loop replicates exactly.  Exact-type
#: checks: subclasses (e.g. AdaptivePerformanceMaximizer) may override
#: anything.
_GOVERNORS = (
    PerformanceMaximizer,
    PowerSave,
    DemandBasedSwitching,
    StaticClocking,
    FixedFrequency,
)


def eligible(st, tel) -> bool:
    """Whether ``st`` can run the fused loop bit-identically.

    The conditions mirror everything the fused kernel inlines; any
    stateful boundary it cannot replicate exactly (resilience,
    injection, adaptation, schedules, telemetry, wrappers, subclasses)
    routes the run back to the scalar loop.
    """
    if not FAST_LOOP:
        return False
    if tel is not None and tel.enabled:
        return False
    if (
        st.rt is not None
        or st.injecting
        or st.adapting
        or st.schedule is not None
    ):
        return False
    machine = st.machine
    if not block_capable(machine):
        return False
    if st.driver is not machine.speedstep:
        return False
    sampler = st.sampler
    if type(sampler) is not CounterSampler:
        return False
    for event in sampler._events:
        if event not in _SELECTOR:
            return False
    governor = st.governor
    if type(governor) not in _GOVERNORS:
        return False
    if hasattr(governor, "observe_power"):
        return False
    if tuple(governor.table) != tuple(machine.config.table):
        return False
    if inline_meter(machine) is not st.meter:
        return False
    return True


def run_fast(st, tel, checkpointer=None, resumed=False):
    """Drive ``st`` to completion on the fused path.

    Only call when :func:`eligible` returned True.  Returns the same
    :class:`~repro.core.controller.RunResult` (bit-identical) as the
    scalar loop.

    One Python loop holds the machine tick kernel, the inlined meter
    and PMU updates, the counter-sampler arithmetic and the governor's
    table-driven decision, all in local variables.  The segment math
    and the meter bucket loop are inlined bodily (no function calls on
    the tick path), template fields live in unpacked locals refreshed
    only on phase/p-state change, and ``min``/``max`` builtins are
    replaced by branch expressions with identical float semantics.

    On checkpointer-free runs the three per-tick Gaussian draws
    (jitter innovation, sense-amp noise, ADC noise) come from chunked
    ``standard_normal`` buffers: numpy array draws consume the exact
    same variate stream as repeated scalar calls and
    ``0.0 + scale * z`` is bitwise ``normal(0.0, scale)``, so every
    consumed value is identical -- only the generators' *final* states
    run ahead by the unconsumed tail, which nothing observes without a
    checkpoint.  Runs with a checkpointer keep scalar draws so pickled
    RNG states stay resume-exact.

    Object state is written back (`finally`) before every checkpoint
    save, on the simulated-time-limit raise and at loop exit, so
    checkpoints and error states are indistinguishable from the scalar
    path's.
    """
    from repro.core.controller import TraceRow, _finish_run

    machine = st.machine
    governor = st.governor
    meter = st.meter
    sampler = st.sampler
    driver = st.driver
    workload_name = st.workload_name
    max_seconds = st.max_seconds
    keep_trace = st.keep_trace

    config = machine.config
    cursor = machine._cursor
    workload = cursor._workload
    phases = workload.phases
    n_phases = len(phases)
    total = workload.total_instructions
    finish_line = total - 1e-9
    dt = config.tick_s
    dt_eps = dt - 1e-12
    dvfs = machine.dvfs
    timing = machine._timing
    constants = config.power
    rng_normal = machine._rng.normal
    mach_std = machine._rng.standard_normal
    _exp = math.exp
    _new = object.__new__
    # Constraint schedules are ineligible, so the duty cycle is fixed
    # for the whole run (the scalar loop re-reads an unchanged value).
    duty = machine.throttle.duty

    table = config.table
    states = tuple(table)
    n_states = len(states)
    state_index = {state: i for i, state in enumerate(states)}

    pstate = dvfs.current
    current_index = state_index[pstate]
    freq = pstate.frequency_mhz
    freq_1e6 = freq * 1e6

    # One template row per p-state, filled lazily per phase.
    template_rows = [[None] * n_phases for _ in range(n_states)]
    templates = template_rows[current_index]

    gov_states = tuple(governor.table)
    gtype = type(governor)
    if gtype is PerformanceMaximizer:
        mode = 0
        proj_rows = governor.projection_table().rows
        budget_w = governor._limit - governor._guardband
        raise_window = governor._raise_window
        raise_streak = governor._raise_streak
        pending = governor._pending_raise
        pending_index = (
            state_index[pending] if pending is not None else None
        )
    elif gtype is PowerSave:
        mode = 1
        ps_proj = governor.projection_table()
        floor_plus_eps = governor._floor + 1e-12
        dcu_threshold = governor._model.dcu_threshold
        fastest_mhz = ps_proj.fastest_mhz
        fast_factor = ps_proj.fast_factor
        ascending_rows = ps_proj.ascending
    elif gtype is DemandBasedSwitching:
        mode = 2
        up_threshold = governor._up
        down_threshold = governor._down
    else:  # StaticClocking / FixedFrequency: one constant target
        mode = 3
        static_index = state_index[governor._pstate]

    # Machine / PMU state -> locals (written back at sync points).
    time_s = machine._time_s
    jitter_log = machine._jitter_log
    charged = machine._charged_dead_time_s
    dead_total = dvfs.total_dead_time_s
    phase_index = cursor._phase_index
    into_phase = cursor._into_phase
    retired = cursor._retired

    pmu = machine.pmu
    msr = machine.msr
    event0, event1 = pmu._events
    selector0 = _SELECTOR.get(event0)
    selector1 = _SELECTOR.get(event1)
    cycles_int = pmu._cycles
    cycle_res = pmu._cycle_residual
    res0, res1 = pmu._residuals
    pmc0 = msr.rdmsr(IA32_PMC0)
    pmc1 = msr.rdmsr(IA32_PMC1)
    tsc = msr.rdmsr(IA32_TIME_STAMP_COUNTER)

    # Meter state -> locals (PowerMeter.accumulate, inlined bodily).
    m_interval = meter.interval_s
    close_eps = m_interval - 1e-12
    sense = meter._sense
    adc = meter._adc
    supply = meter._supply_v
    realized = sense._realized_ohm
    nominal = sense.resistance_ohm
    amp_noise = sense.amplifier_noise_v
    sense_normal = sense._rng.normal
    sense_std = sense._rng.standard_normal
    adc_normal = adc._rng.normal
    noise_floor = adc.noise_floor_watts
    full_scale = adc.full_scale_watts
    lsb = adc.full_scale_watts / (1 << adc.bits)
    meter_samples = meter._samples
    samples_append = meter_samples.append
    n_samples = len(meter_samples)
    last_measured_w = meter_samples[-1].watts if n_samples else 0.0
    m_time = meter._time_s
    bucket_e = meter._bucket_energy_j
    bucket_t = meter._bucket_time_s

    sampler_elapsed = sampler._elapsed_s

    residency = st.residency
    trace = st.trace
    trace_append = trace.append
    instructions = st.instructions
    true_energy = st.true_energy
    sample_index = st.sample_index
    tick_index = st.tick_index

    # Chunked RNG only when no checkpoint can pickle a generator state.
    # The stock meter hands ONE generator to both front ends, so sense
    # and ADC noise interleave on a single stream: each sample close
    # consumes exactly two variates, in order, from one shared buffer
    # (_RNG_CHUNK is even, keeping refills aligned).  A meter with
    # split generators keeps scalar draws.
    batch_rng = checkpointer is None
    batch_meter = batch_rng and sense._rng is adc._rng
    meter_std = sense_std
    jit_buf = m_buf = None
    jit_i = m_i = _RNG_CHUNK
    jit_refills = m_refills = 0
    if batch_rng:
        # Chunk refills run each generator ahead of the scalar script;
        # the `finally` below rewinds to these states and re-consumes
        # exactly the used counts (one array draw lands the generator
        # in the same state as that many scalar draws), so post-loop
        # consumers (the run-end meter flush) see scalar-exact streams.
        jit_state0 = machine._rng.bit_generator.state
        m_state0 = sense._rng.bit_generator.state

    # Current-p-state residency accumulates in a local; flushed to the
    # dict on p-state change and at every sync point.
    res_acc = residency.get(freq, 0.0)

    # Unpacked fields of the template the loop last touched.
    t_cur = None

    if checkpointer is not None:
        interval = checkpointer.interval_ticks
        next_checkpoint = (
            tick_index
            if tick_index == 0 and not resumed
            else tick_index + interval
        )
    else:
        next_checkpoint = _INF

    try:
        while retired < finish_line:
            if time_s > max_seconds:
                raise ExperimentError(
                    f"{workload_name} under {governor.name} exceeded "
                    f"{max_seconds}s of simulated time"
                )
            if tick_index >= next_checkpoint:
                # Locals -> objects so the pickled _RunState is exactly
                # what the scalar loop would have checkpointed.  (Only
                # reachable with a checkpointer, i.e. batch_rng off.)
                machine._time_s = time_s
                machine._jitter_log = jitter_log
                machine._charged_dead_time_s = charged
                cursor._retired = retired
                cursor._into_phase = into_phase
                cursor._phase_index = phase_index
                pmu._cycles = cycles_int
                pmu._cycle_residual = cycle_res
                pmu._residuals[0] = res0
                pmu._residuals[1] = res1
                msr.poke(IA32_PMC0, pmc0)
                msr.poke(IA32_PMC1, pmc1)
                msr.poke(IA32_TIME_STAMP_COUNTER, tsc)
                meter._time_s = m_time
                meter._bucket_energy_j = bucket_e
                meter._bucket_time_s = bucket_t
                sampler._elapsed_s = sampler_elapsed
                sampler._last = pmu.snapshot()
                residency[freq] = res_acc
                if mode == 0:
                    governor._raise_streak = raise_streak
                    governor._pending_raise = (
                        gov_states[pending_index]
                        if pending_index is not None
                        else None
                    )
                st.instructions = instructions
                st.true_energy = true_energy
                st.tick_index = tick_index
                checkpointer.save(tick_index, st, tel)
                next_checkpoint = tick_index + interval

            # ---- machine tick (mirrors Machine.step) ----
            start_time = time_s
            energy = 0.0
            tick_instr = 0.0
            elapsed = 0.0
            pmc0_start = pmc0
            pmc1_start = pmc1
            cycles_start = cycles_int

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

            dead = dead_total - charged
            if dead > 0:
                if dead > dt:
                    dead = dt
                charged += dead
                energy += t_idle_w * dead
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
                        # Frozen-dataclass __init__ goes through
                        # object.__setattr__ four times; filling the
                        # instance dict directly builds an
                        # indistinguishable object at half the cost.
                        sample = _new(PowerSample)
                        sdict = sample.__dict__
                        sdict["time_s"] = m_time
                        sdict["watts"] = measured_w
                        sdict["true_watts"] = true_mean
                        sdict["duration_s"] = bucket_t
                        samples_append(sample)
                        last_measured_w = measured_w
                        n_samples += 1
                        bucket_e = 0.0
                        bucket_t = 0.0
                elapsed += dead

            if t_sigma == 0.0:
                jitter_log = 0.0
                jitter = 1.0
            else:
                if batch_rng:
                    if jit_i == _RNG_CHUNK:
                        jit_buf = mach_std(_RNG_CHUNK).tolist()
                        jit_i = 0
                        jit_refills += 1
                    innovation = 0.0 + t_jitter_scale * jit_buf[jit_i]
                    jit_i += 1
                else:
                    innovation = rng_normal(0.0, t_jitter_scale)
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
                full_power = t_v2f * activity + t_static
                power = (full_power - t_static) * duty + t_static
                effective_ips = ips * duty
                seg_time = budget / effective_ips
                time_left = dt - elapsed
                if time_left < seg_time:
                    seg_time = time_left
                seg_instr = effective_ips * seg_time
                if budget < seg_instr:
                    seg_instr = budget
                seg_cycles = seg_time * t_freq_mhz * 1e6 * duty

                retired += seg_instr
                into_phase += seg_instr
                if into_phase >= t_phase_end:
                    into_phase = 0.0
                    phase_index = (phase_index + 1) % n_phases
                cycle_res += seg_cycles
                whole = int(cycle_res)
                cycle_res -= whole
                cycles_int += whole
                tsc = (tsc + whole) & _M64
                if selector0 is not None:
                    rate = (
                        dpc_rate
                        if selector0 == 0
                        else (ipc_rate if selector0 == 1 else dcu_rate)
                    )
                    res0 += rate * seg_cycles
                    increment = int(res0)
                    res0 -= increment
                    pmc0 = (pmc0 + increment) & _M40
                if selector1 is not None:
                    rate = (
                        dpc_rate
                        if selector1 == 0
                        else (ipc_rate if selector1 == 1 else dcu_rate)
                    )
                    res1 += rate * seg_cycles
                    increment = int(res1)
                    res1 -= increment
                    pmc1 = (pmc1 + increment) & _M40
                energy += power * seg_time
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
                        # Frozen-dataclass __init__ goes through
                        # object.__setattr__ four times; filling the
                        # instance dict directly builds an
                        # indistinguishable object at half the cost.
                        sample = _new(PowerSample)
                        sdict = sample.__dict__
                        sdict["time_s"] = m_time
                        sdict["watts"] = measured_w
                        sdict["true_watts"] = true_mean
                        sdict["duration_s"] = bucket_t
                        samples_append(sample)
                        last_measured_w = measured_w
                        n_samples += 1
                        bucket_e = 0.0
                        bucket_t = 0.0
                tick_instr += seg_instr
                elapsed += seg_time

            time_s = start_time + elapsed
            mean_power = energy / elapsed if elapsed > 0 else 0.0

            # ---- sampler (mirrors CounterSampler.sample) ----
            c0 = (pmc0 - pmc0_start) & _M40
            cyc = (cycles_int - cycles_start) & _M40
            r0 = c0 / cyc if cyc > 0 else 0.0
            sampler_elapsed += elapsed

            # ---- accounting (mirrors the scalar loop body) ----
            instructions += tick_instr
            true_energy += energy
            tick_freq = freq
            res_acc += elapsed
            measured = (
                last_measured_w
                if n_samples > sample_index
                else mean_power
            )

            # ---- decide (table-driven, bit-identical to decide()) ----
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
                    if pending_index is None or desired_index > pending_index:
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
                    peak = r0 * fast_factor[current_index] * fastest_mhz * 1e6
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
            # dead time and transition counts stay checkpoint-exact) ----
            if target_index != current_index:
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
                if mode == 1:
                    rates = {event0: r0, event1: r1}
                else:
                    rates = {event0: r0}
                trace_append(
                    TraceRow(
                        time_s=time_s,
                        frequency_mhz=tick_freq,
                        measured_power_w=measured,
                        true_power_w=mean_power,
                        instructions=tick_instr,
                        rates=rates,
                        duty=duty,
                        temperature_c=None,
                    )
                )
            tick_index += 1
    finally:
        # Locals -> objects (also on the max_seconds raise and any
        # unexpected error, so nothing is ever left torn).
        if jit_buf is not None:
            machine._rng.bit_generator.state = jit_state0
            used = (jit_refills - 1) * _RNG_CHUNK + jit_i
            if used:
                mach_std(used)
        if m_buf is not None:
            sense._rng.bit_generator.state = m_state0
            used = (m_refills - 1) * _RNG_CHUNK + m_i
            if used:
                meter_std(used)
        machine._time_s = time_s
        machine._jitter_log = jitter_log
        machine._charged_dead_time_s = charged
        cursor._retired = retired
        cursor._into_phase = into_phase
        cursor._phase_index = phase_index
        pmu._cycles = cycles_int
        pmu._cycle_residual = cycle_res
        pmu._residuals[0] = res0
        pmu._residuals[1] = res1
        msr.poke(IA32_PMC0, pmc0)
        msr.poke(IA32_PMC1, pmc1)
        msr.poke(IA32_TIME_STAMP_COUNTER, tsc)
        meter._time_s = m_time
        meter._bucket_energy_j = bucket_e
        meter._bucket_time_s = bucket_t
        sampler._elapsed_s = sampler_elapsed
        sampler._last = pmu.snapshot()
        residency[freq] = res_acc
        if mode == 0:
            governor._raise_streak = raise_streak
            governor._pending_raise = (
                gov_states[pending_index]
                if pending_index is not None
                else None
            )

    st.instructions = instructions
    st.true_energy = true_energy
    st.tick_index = tick_index
    return _finish_run(st, tel)
