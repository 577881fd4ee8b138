"""The cells whose outcomes ``golden_loop.json`` freezes.

Each entry of :data:`CELLS` builds and runs one single-core controller
run and returns its :class:`~repro.core.controller.RunResult`; each entry
of :data:`BUNDLES` runs one cell with a telemetry directory.  The fixture
holds the float-exact ``run_result_digest`` of every cell and the hashes
of every bundle, first recorded on the scalar reference loop the fused
kernel replaced, so the oracle is data rather than a second loop.  The
bundles' event hashes (:func:`event_hashes`) were recorded while runs
still published three events per tick; they hold for the one ``ticks``
record per run that replaced them.

Four families:

* ``matrix/...`` -- the equivalence matrix: five governor archetypes x
  fault injection x online adaptation on gzip.
* ``case/...`` -- one cell per configuration the kernel once refused:
  thermal machines, T-state throttling, the oracle, constraint
  schedules, multiplexed counters, measured-power governors, the
  resilience runtime under each fault family, and more.
* ``multicore/...`` -- ``threads`` 2 and 4 x four governors on a
  memory-, a mixed- and a core-bound workload, plus a thermal and a
  jittered two-core cell.  Recorded on the multicore per-tick loop
  (one ``Machine.step`` per core per tick under the contention model)
  that the kernel's per-core lanes replaced.
* ``bundle/...`` -- telemetry bundles (``events.jsonl`` as rare events
  and per-tick values, the trace CSV, ``metrics.json`` minus spans).
  The trace CSV was a bundle file, ``trace.csv``; it is now rendered
  from the ``ticks`` records (:func:`trace_sha256`) and hashes the same.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

from repro.adaptation.manager import AdaptationConfig, AdaptationManager
from repro.checkpoint import (
    ExperimentCheckpointSession,
    RunJournal,
    run_result_digest,
)
from repro.checkpoint.session import RESULTS_FILENAME
from repro.core.controller import PowerManagementController
from repro.core.governors.component_pm import ComponentPerformanceMaximizer
from repro.core.governors.oracle import OraclePerformanceMaximizer
from repro.core.governors.performance_maximizer import PerformanceMaximizer
from repro.core.governors.thermal_guard import ThermalGuard
from repro.core.governors.throttling_pm import ThrottlingMaximizer
from repro.core.governors.unconstrained import EventProbe, FixedFrequency
from repro.core.limits import ConstraintSchedule
from repro.core.models.component_power import (
    ComponentCoefficients,
    ComponentPowerModel,
)
from repro.core.models.power import LinearPowerModel
from repro.core.resilience import ResilienceConfig
from repro.exec import (
    ExperimentConfig,
    GovernorSpec,
    RunCell,
    RunPlan,
    execute_cell,
    open_session,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    MeterFaults,
    SampleFaults,
    ThermalFaults,
    TransitionFaults,
)
from repro.platform.events import Event
from repro.platform.leakage import LeakageModel
from repro.platform.machine import Machine, MachineConfig
from repro.platform.power import PowerModelConstants
from repro.platform.thermal import ThermalModel
from repro.telemetry import TelemetryRecorder
from repro.telemetry.exporters import JsonlEventExporter, render_trace_csv
from repro.telemetry.report import load_events
from repro.workloads.registry import get_workload

FIXTURE = Path(__file__).with_name("golden_loop.json")

#: A results journal the loop wrote for :data:`RESUME_PLAN`.
GOLDEN_JOURNAL = Path(__file__).with_name("golden_journal")

CONFIG = ExperimentConfig(scale=0.25, seed=5, keep_trace=True)

#: The governor archetypes: DBS (utilization, the OS baseline), the
#: paper's PM (model-projected power capping) and PS (Eq. 3 floor, the
#: Fig. 9 governor), a fixed frequency (the constant-target decision)
#: and the energy-optimal search (multiplexed counters).
GOVERNORS = {
    "dbs": GovernorSpec.dbs(),
    "paper-pm": GovernorSpec.pm(14.5, power_model="paper"),
    "ps": GovernorSpec.ps(0.6),
    "fixed": GovernorSpec.fixed(1400.0),
    "energy-optimal": GovernorSpec.energy_optimal(),
}

PLAN = FaultPlan(
    seed=7,
    sample=SampleFaults(drop_prob=0.05, garble_prob=0.02),
    meter=MeterFaults(spike_prob=0.02, drift_rate_per_s=0.01,
                      drift_start_s=0.1),
)

MODEL = LinearPowerModel.paper_model()

#: A package that heats quickly, with temperature-dependent leakage.
HOT = dict(
    power=PowerModelConstants(
        leakage=LeakageModel(0.81, theta_per_kelvin=0.012,
                             t_ref_celsius=60.0)
    ),
    thermal=ThermalModel(r_th_c_per_w=2.6, c_th_j_per_c=0.6,
                         t_ambient_c=60.0),
)

#: One fault model per family, each under the resilience runtime.
FAULT_FAMILIES = {
    "sample-drop": FaultPlan(seed=3, sample=SampleFaults(drop_prob=0.15)),
    "sample-duplicate": FaultPlan(
        seed=3, sample=SampleFaults(duplicate_prob=0.2)
    ),
    "sample-garble": FaultPlan(seed=3, sample=SampleFaults(garble_prob=0.2)),
    "sample-overflow": FaultPlan(
        seed=3, sample=SampleFaults(overflow_prob=0.2)
    ),
    "meter-dropout": FaultPlan(seed=3, meter=MeterFaults(dropout_prob=0.1)),
    "meter-spike": FaultPlan(seed=3, meter=MeterFaults(spike_prob=0.1)),
    "meter-drift": FaultPlan(
        seed=3, meter=MeterFaults(drift_rate_per_s=0.2, drift_start_s=0.2)
    ),
    "transition-fail": FaultPlan(
        seed=3, transition=TransitionFaults(fail_prob=0.4)
    ),
    "transition-stall": FaultPlan(
        seed=3, transition=TransitionFaults(stall_prob=0.5)
    ),
}


def _toy_component_model():
    coefficients = {}
    for freq in (600.0, 800.0, 1000.0, 1200.0, 1400.0, 1600.0, 1800.0,
                 2000.0):
        scale = freq / 2000.0
        coefficients[freq] = ComponentCoefficients(
            weights={
                Event.INST_DECODED: 2.0 * scale,
                Event.FP_COMP_OPS_EXE: 1.0 * scale,
                Event.L2_RQSTS: 5.0 * scale,
            },
            intercept=12.0 * scale,
        )
    return ComponentPowerModel(coefficients)


def _direct(build, workload="ammp", scale=0.4, seed=11, plan=None,
            resilience=None, schedule=None, initial=None, **config):
    """Run ``build(machine)`` on a directly built controller; ``config``
    holds extra :class:`MachineConfig` fields."""
    machine = Machine(MachineConfig(seed=seed, **config))
    injector = FaultInjector(plan) if plan is not None else None
    controller = PowerManagementController(
        machine, build(machine), keep_trace=True, resilience=resilience,
        injector=injector,
    )
    start = (
        machine.config.table.by_frequency(initial)
        if initial is not None else None
    )
    return controller.run(
        get_workload(workload).scaled(scale), initial_pstate=start,
        schedule=schedule,
    )


def _matrix(name, faults, adapt):
    return lambda: execute_cell(
        RunCell(workload="gzip", governor=GOVERNORS[name]),
        CONFIG,
        fault_plan=PLAN if faults else None,
        adaptation=AdaptationManager(AdaptationConfig()) if adapt else None,
    )


def _schedule():
    schedule = ConstraintSchedule()
    schedule.add_power_limit(0.05, 10.5)
    schedule.add_power_limit(0.4, 16.0)
    return schedule


def _pm(machine):
    return PerformanceMaximizer(machine.config.table, MODEL, 14.5)


def _shared_machine():
    """Two controllers on one machine: the first meter keeps listening."""
    machine = Machine(MachineConfig(seed=4))
    workload = get_workload("gzip").scaled(0.2)
    PowerManagementController(machine, _pm(machine)).run(workload)
    controller = PowerManagementController(
        machine, _pm(machine), keep_trace=True
    )
    return controller.run(workload)


#: A cell whose last decision enters a p-state no tick runs at.
LAST_TRANSITION = (
    RunCell(
        workload="ammp", governor=GovernorSpec.pm(14.5, power_model="paper")
    ),
    ExperimentConfig(scale=0.1, seed=3),
)


def _cell(governor, workload="gzip", **options):
    return lambda: execute_cell(
        RunCell(workload=workload, governor=governor, **options), CONFIG
    )


CELLS = {}
for _name in GOVERNORS:
    for _faults in (False, True):
        for _adapt in (False, True):
            CELLS[
                f"matrix/{_name}/{'faults' if _faults else 'clean'}/"
                f"{'adapt' if _adapt else 'frozen'}"
            ] = _matrix(_name, _faults, _adapt)

CELLS.update({
    "case/thermal-fixed": lambda: _direct(
        lambda m: FixedFrequency(m.config.table, 1400.0),
        thermal=ThermalModel(),
    ),
    "case/thermal-pm": lambda: _direct(_pm, workload="gzip", **HOT),
    "case/thermal-guard": lambda: _direct(
        lambda m: ThermalGuard(
            FixedFrequency(m.config.table, 2000.0),
            lambda: m.thermal.temperature_c, t_limit_c=75.0,
        ),
        **HOT,
    ),
    "case/thermal-stuck": lambda: _direct(
        _pm, workload="gzip",
        plan=FaultPlan(seed=3, thermal=ThermalFaults(
            stuck_prob=0.05, stuck_duration_s=0.3)),
        resilience=ResilienceConfig(stuck_temperature_ticks=5),
        thermal=ThermalModel(),
    ),
    "case/throttling": lambda: _direct(
        lambda m: ThrottlingMaximizer(m.config.table, MODEL, m.throttle, 12.5),
        workload="gzip",
    ),
    "case/oracle": lambda: _direct(
        lambda m: OraclePerformanceMaximizer(
            m.config.table, m.oracle_power, 13.5
        ),
    ),
    "case/schedule": lambda: _direct(
        lambda m: PerformanceMaximizer(m.config.table, MODEL, 17.5),
        workload="gzip", schedule=_schedule(),
    ),
    "case/component-pm": lambda: _direct(
        lambda m: ComponentPerformanceMaximizer(
            m.config.table, _toy_component_model(), 15.0
        ),
        workload="galgel",
    ),
    "case/energy-efficiency": _cell(GovernorSpec.edp()),
    "case/energy-optimal": _cell(GovernorSpec.energy_optimal(),
                                 workload="mcf"),
    "case/dpc-probe": lambda: _direct(
        lambda m: EventProbe(m.config.table, 2000.0, (Event.INST_DECODED,)),
        initial=2000.0,
    ),
    "case/odd-events": lambda: _direct(
        # Events the kernel does not fuse.
        lambda m: EventProbe(
            m.config.table, 1200.0,
            (Event.BR_INST_RETIRED, Event.RESOURCE_STALLS),
        )
    ),
    "case/adaptive-pm": _cell(GovernorSpec.adaptive_pm(14.5)),
    "case/shared-machine": _shared_machine,
    "case/last-transition": lambda: execute_cell(*LAST_TRANSITION),
})
for _family, _plan in FAULT_FAMILIES.items():
    CELLS[f"case/resilience-{_family}"] = (
        lambda plan=_plan: _direct(
            lambda m: PerformanceMaximizer(m.config.table, MODEL, 13.0),
            workload="galgel", scale=0.5, plan=plan,
            resilience=ResilienceConfig(),
        )
    )


#: Full-length runs, so multicore cells cross phase boundaries and
#: actuate.
MULTICORE_CONFIG = ExperimentConfig(scale=1.0, seed=5, keep_trace=True)

MULTICORE_GOVERNORS = {
    "pm": GovernorSpec.pm(14.5),
    "ps": GovernorSpec.ps(0.8),
    "energy-optimal": GovernorSpec.energy_optimal(),
    "fixed": GovernorSpec.fixed(1400.0),
}


def _multicore(governor, workload, threads, **machine):
    """One ``threads``-core cell; ``machine`` holds extra
    :class:`MachineConfig` fields."""
    config = MULTICORE_CONFIG
    if machine:
        config = replace(config, machine=MachineConfig(**machine))
    return lambda: execute_cell(
        RunCell(workload=workload, governor=governor, threads=threads),
        config,
    )


for _workload in ("swim", "ammp", "crafty"):
    for _threads in (2, 4):
        for _name, _spec in MULTICORE_GOVERNORS.items():
            CELLS[f"multicore/{_workload}/t{_threads}/{_name}"] = _multicore(
                _spec, _workload, _threads
            )
CELLS["multicore/thermal-pm"] = _multicore(
    MULTICORE_GOVERNORS["pm"], "ammp", 2, **HOT
)
#: galgel's bursty phases draw a jitter innovation on every core, every
#: tick.
CELLS["multicore/jittered-ps"] = _multicore(
    MULTICORE_GOVERNORS["ps"], "galgel", 2
)


def _bundle(name, keep_trace, faults=False):
    def run(directory):
        config = ExperimentConfig(
            scale=CONFIG.scale, seed=CONFIG.seed, keep_trace=keep_trace
        )
        cell = RunCell(
            workload="gzip", governor=GOVERNORS[name],
            fault_plan=PLAN if faults else None,
            adaptation=AdaptationConfig() if faults else None,
        )
        with open_session(telemetry_dir=directory) as session:
            (result,) = session.run_plan(RunPlan(config, (cell,)))
        return result
    return run


BUNDLES = {
    f"bundle/{name}/{'trace' if keep_trace else 'notrace'}": _bundle(
        name, keep_trace
    )
    for name in GOVERNORS
    for keep_trace in (False, True)
}
BUNDLES["bundle/paper-pm/faults-adapt"] = _bundle("paper-pm", True, True)


#: Cells of every fused decision family: projection table (PM, PS) and
#: constant target (Fixed, starting at P0 so it actuates once).
RESUME_PLAN = RunPlan(
    config=ExperimentConfig(scale=0.4, seed=11, keep_trace=True),
    cells=tuple(
        RunCell(workload=workload, governor=GOVERNORS[name])
        for workload in ("ammp", "gzip")
        for name in ("paper-pm", "ps", "fixed")
    ),
)


def checkpointed(directory, telemetry=None, resume=False):
    """Run :data:`RESUME_PLAN` archived into ``directory``.

    Returns the per-cell digests and how many cells replayed from the
    archive.
    """
    checkpoint = (
        ExperimentCheckpointSession.open(directory, telemetry=telemetry)
        if resume
        else ExperimentCheckpointSession.create(
            directory, "drill", telemetry=telemetry
        )
    )
    with checkpoint, open_session(
        telemetry=telemetry, checkpoint=checkpoint
    ) as session:
        results = session.run_plan(RESUME_PLAN)
    return [run_result_digest(r) for r in results], checkpoint.replayed


def cut(directory, keep):
    """Tear the results journal after ``keep`` records, as SIGKILL does.

    Garbage past the last durable record is a half-written append.
    """
    journal = RunJournal.open(directory, filename=RESULTS_FILENAME)
    end = journal.records()[keep - 1].end_offset
    with open(journal.journal_path, "r+b") as handle:
        handle.truncate(end + 7)


def observed(path):
    """A recorder whose events stream to the JSONL file ``path``."""
    recorder = TelemetryRecorder()
    exporter = JsonlEventExporter(path)
    recorder.bus.subscribe(exporter)
    return recorder, exporter


#: The per-tick event kinds one ``ticks`` record per run replaced.
PER_TICK_KINDS = ("sample", "decision", "tick")


def expand_ticks(record: dict) -> list[dict]:
    """The ``sample``/``decision``/``tick`` dicts a ``ticks`` record
    stands for, in emission order (three per tick)."""
    columns = record["columns"]
    rates = record["rates"]
    governor = record["governor"]
    out = []
    elapsed = 0.0  # the sampler's accumulated interval time
    for i, time_s in enumerate(columns["time_s"]):
        interval = columns["interval_s"][i]
        cycles = columns["cycles"][i]
        freq = columns["frequency_mhz"][i]
        elapsed += interval
        out.append({
            "kind": "sample",
            "time_s": elapsed,
            "interval_s": interval,
            "cycles": cycles,
            "effective_frequency_mhz": (
                cycles / interval / 1e6 if interval > 0 else 0.0
            ),
            "rates": {
                name: values[i]
                for name, values in rates.items()
                if values[i] is not None
            },
        })
        out.append({
            "kind": "decision",
            "time_s": time_s,
            "governor": governor,
            "current_mhz": freq,
            "target_mhz": columns["target_mhz"][i],
        })
        out.append({
            "kind": "tick",
            "time_s": time_s,
            "frequency_mhz": freq,
            "measured_power_w": columns["measured_power_w"][i],
            "true_power_w": columns["true_power_w"][i],
            "instructions": columns["instructions"][i],
            "duty": columns["duty"][i],
            "temperature_c": columns["temperature_c"][i],
        })
    return out


def event_hashes(path) -> dict:
    """Hashes of a JSONL event log that hold across the per-tick format.

    ``rare_events_sha256`` covers every line except the per-tick ones
    (the three per-tick kinds, or a ``ticks`` record), byte for byte:
    each event as the exporter writes it, ``json.dumps`` of its dict.
    ``ticks_sha256`` covers the per-tick dicts in order, each as
    canonical JSON, with ``ticks`` records (read through
    :func:`~repro.telemetry.report.load_events`) expanded by
    :func:`expand_ticks`.
    """
    events, skipped, truncated = load_events(path)
    assert (skipped, truncated) == (0, False)
    rare = hashlib.sha256()
    ticks = hashlib.sha256()
    for event in events:
        kind = event["kind"]
        if kind == "ticks":
            per_tick = expand_ticks(event)
        elif kind in PER_TICK_KINDS:
            per_tick = (event,)
        else:
            rare.update((json.dumps(event) + "\n").encode())
            continue
        for item in per_tick:
            ticks.update(json.dumps(item, sort_keys=True).encode())
            ticks.update(b"\n")
    return {
        "rare_events_sha256": rare.hexdigest(),
        "ticks_sha256": ticks.hexdigest(),
    }


def trace_sha256(path) -> str:
    """Hash of the trace CSV rendered from the ``ticks`` records of the
    JSONL event log ``path``: the bytes a bundle's ``trace.csv`` held."""
    events, _, _ = load_events(path)
    return hashlib.sha256(render_trace_csv(events).encode()).hexdigest()


def bundle_record(directory, result) -> dict:
    """What the fixture keeps of one telemetry bundle."""
    with open(Path(directory) / "metrics.json") as handle:
        metrics = json.load(handle)
    metrics.pop("spans")
    events_path = Path(directory) / "events.jsonl"
    return {
        "digest": run_result_digest(result),
        **event_hashes(events_path),
        "trace_sha256": trace_sha256(events_path),
        "metrics": metrics,
    }


def load_fixture() -> dict:
    with open(FIXTURE) as handle:
        return json.load(handle)
