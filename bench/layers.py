"""Outside-in layer tracing for the benchmark's traced pass.

Every target is a public entry point of one simulator layer, named by
dotted path and wrapped from here, so nothing under ``src/`` changes.
Targets are installed while no cell is alive: a machine binds its meter
sink when it is built, and ``inline_meter``'s identity check stays true
only if the class attribute and the bound sink are the same wrapper.

A wrapped call records a span (metric, start, end, parent, cell); a
layer's self time is its spans' duration minus the time covered by its
wrapped children (:func:`layer_table`).  ``TelemetryRecorder.span``
returns a context manager, so it is counted, not timed.  A target that
no longer exists is reported as absent instead of raising.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time

from host import cpu_seconds, nproc

#: (metric, "module:qualname") pairs.  Several targets may feed one
#: metric (every sampler's ``sample``, every ``Faulty*`` wrapper).
TARGETS: tuple[tuple[str, str], ...] = (
    ("blockloop.run_fast", "repro.core.blockloop:run_fast"),
    ("controller.run", "repro.core.controller:PowerManagementController.run"),
    ("platform.step", "repro.platform.machine:Machine.step"),
    ("platform.step_block", "repro.platform.machine:Machine.step_block"),
    ("platform.load", "repro.platform.machine:Machine.load"),
    ("sampling.sample", "repro.core.sampling:CounterSampler.sample"),
    ("sampling.sample",
     "repro.core.sampling:MultiplexedCounterSampler.sample"),
    ("meter.accumulate",
     "repro.measurement.power_meter:PowerMeter.accumulate"),
    ("drivers.set_pstate", "repro.drivers.speedstep:SpeedStepDriver.set_pstate"),
    ("drivers.set_pstate",
     "repro.drivers.speedstep:DomainSpeedStepDriver.set_pstate"),
    ("models.estimate", "repro.core.models.power:LinearPowerModel.estimate"),
    ("models.estimate",
     "repro.core.models.performance:PerformanceModel.project_throughput"),
    ("faults.inject", "repro.faults.injector:FaultySampler.sample"),
    ("faults.inject", "repro.faults.injector:FaultyPowerMeter.accumulate"),
    ("faults.inject", "repro.faults.injector:FaultySpeedStep.set_pstate"),
    ("adaptation.observe", "repro.adaptation.manager:AdaptationManager.observe"),
    ("multicore.run", "repro.multicore.controller:MulticoreController.run"),
    ("multicore.step", "repro.multicore.machine:MulticoreMachine.step"),
    ("multicore.contention",
     "repro.multicore.contention:ContentionModel.effective_timings"),
    ("telemetry.emit", "repro.telemetry.recorder:TelemetryRecorder.emit"),
    ("telemetry.span", "repro.telemetry.recorder:TelemetryRecorder.span"),
    ("telemetry.finalize",
     "repro.telemetry.exporters:TelemetryDirectory.finalize"),
    ("exec.prepare_cell", "repro.exec.core:prepare_cell"),
    ("exec.execute_cell", "repro.exec.core:execute_cell"),
    ("exec.pool", "repro.exec.runner:ParallelRunner.execute"),
    ("campaign.cell_digest", "repro.campaign.store:cell_digest"),
    ("campaign.store_get", "repro.campaign.store:ResultStore.get"),
    ("campaign.store_put", "repro.campaign.store:ResultStore.put"),
    ("campaign.dispatch", "repro.campaign.dispatch:LeaseDispatcher.dispatch"),
    ("checkpoint.digest", "repro.checkpoint.digest:run_result_digest"),
    ("training.collect", "repro.core.models.training:collect_training_data"),
    ("training.fit", "repro.core.models.training:fit_power_model"),
    ("exec.trained_power_model", "repro.exec.cache:trained_power_model"),
)

#: ``decide`` is wrapped on every class of this package that derives
#: from the governor base class and defines its own ``decide``.
GOVERNOR_PACKAGE = "repro.core.governors"
GOVERNOR_BASE = "repro.core.governors.base:Governor"

#: The 15 ``report_all`` sections; each module's ``run`` is timed.
EXPERIMENT_MODULES: tuple[str, ...] = (
    "table2_power_model", "table3_worst_case", "table4_static_freq",
    "fig1_power_variation", "fig2_pstate_impact", "fig5_pm_trace",
    "fig6_perf_vs_limit", "fig7_pm_speedup", "fig8_ps_trace",
    "fig9_ps_suite", "fig10_ps_energy", "fig11_ps_perf",
    "model_accuracy", "characterization", "hierarchy_probe",
)

#: Returns a context manager, so timing the call would time nothing.
COUNT_ONLY = frozenset({"telemetry.span"})

#: Coordinator-side calls that also record wall and idle processor time.
HOST_TIMED = frozenset({"exec.pool", "campaign.dispatch"})

#: Calls whose first argument is a RunCell: they set the span cell id.
CELL_ENTRY = frozenset({"exec.prepare_cell", "exec.execute_cell"})


def all_targets() -> list[tuple[str, str]]:
    """:data:`TARGETS` plus the governor and experiment entry points."""
    targets = list(TARGETS)
    targets += [(f"experiments.{name}.run", f"repro.experiments.{name}:run")
                for name in EXPERIMENT_MODULES]
    try:
        base = _resolve(GOVERNOR_BASE)[2]
        package = importlib.import_module(GOVERNOR_PACKAGE)
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{GOVERNOR_PACKAGE}.{info.name}")
    except (ImportError, AttributeError):
        targets.append(("governors.decide", GOVERNOR_BASE + ".decide"))
        return targets
    seen = [base]
    while seen:
        cls = seen.pop()
        seen.extend(cls.__subclasses__())
        if cls is not base and "decide" in vars(cls):
            targets.append((
                "governors.decide",
                f"{cls.__module__}:{cls.__qualname__}.decide",
            ))
    return targets


def _resolve(target: str):
    """(owner, attribute name, value) for ``module:qual.name``."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{target} is not defined on {owner!r}")
    return owner, attr, vars(owner)[attr]


def layer_table(spans) -> dict[str, dict[str, float]]:
    """Per-metric calls, total and self seconds from recorded spans.

    ``spans`` holds ``(metric, start, end, parent)`` records whose
    ``parent`` indexes the enclosing span (or is None).  Self time is a
    span's duration minus the durations of its direct children.
    """
    covered = [0.0] * len(spans)
    for metric, start, end, parent, *_ in spans:
        if parent is not None:
            covered[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for index, (metric, start, end, *_rest) in enumerate(spans):
        row = table.setdefault(
            metric, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - covered[index]
    return table


class Tracer:
    """Wraps layer entry points and keeps their spans in memory."""

    def __init__(self):
        #: [metric, start, end, parent index, cell label] per call.
        self.spans: list[list] = []
        #: Calls of :data:`COUNT_ONLY` metrics.
        self.counts: dict[str, int] = {}
        #: metric -> [wall seconds, idle processor-seconds].
        self.host: dict[str, list[float]] = {}
        #: metric -> {"sites": n, "absent": [targets]}.
        self.status: dict[str, dict] = {}
        self.cell: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._cpus = nproc()

    # -- installation --------------------------------------------------------

    def install(self, targets=None) -> None:
        """Wrap every target; missing ones are recorded as absent."""
        if targets is None:
            targets = all_targets()
        for metric, target in targets:
            entry = self.status.setdefault(metric, {"sites": 0})
            try:
                owner, attr, original = _resolve(target)
            except (ImportError, AttributeError):
                entry.setdefault("absent", []).append(target)
                continue
            wrapper = self._wrap(metric, original)
            self._patch(owner, attr, original, wrapper)
            if not isinstance(owner, type):
                # Modules that imported the function by name.
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "")
                    if module is owner or not name.startswith("repro"):
                        continue
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, alias, original, wrapper)
            entry["sites"] += 1

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def absent(self) -> dict[str, list[str]]:
        """Metrics none of whose targets exist any more."""
        return {m: s["absent"] for m, s in self.status.items()
                if not s["sites"]}

    # -- recording -----------------------------------------------------------

    def _wrap(self, metric, fn):
        counts = self.counts
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        if metric in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[metric] = counts.get(metric, 0) + 1
                return fn(*args, **kwargs)
            return counted

        host_timed = metric in HOST_TIMED
        cell_entry = metric in CELL_ENTRY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A same-metric call inside itself (a governor's super()
            # decide) folds into the outer span.
            if stack and spans[stack[-1]][0] == metric:
                return fn(*args, **kwargs)
            if cell_entry and args:
                self.cell = getattr(args[0], "label", None)
            span = [metric, 0.0, 0.0, stack[-1] if stack else None,
                    self.cell]
            stack.append(len(spans))
            spans.append(span)
            cpu = cpu_seconds() if host_timed else 0.0
            span[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = clock()
                stack.pop()
                if host_timed:
                    wall = end - start
                    idle = self._cpus * wall - (cpu_seconds() - cpu)
                    row = self.host.setdefault(metric, [0.0, 0.0])
                    row[0] += wall
                    row[1] += idle
            return result
        return traced

    # -- reporting -----------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """:func:`layer_table` over the recorded spans plus counts."""
        table = layer_table(self.spans)
        for metric, calls in self.counts.items():
            table[metric] = {"calls": calls}
        return table
