"""Command-line interface: ``repro-power`` (or ``python -m repro``).

Subcommands
-----------

``list``
    Show every available workload with its category.
``run``
    Run one workload under a governor and print a summary (optionally
    exporting the per-tick trace as CSV).  Besides registry names the
    workload may be a ``trace:FILE.csv`` or ``corpus:NAME[@SEED]``
    spec (also accepted via ``--workload``): the counter trace is
    loaded (or generated), calibrated into the platform envelope, and
    replayed under the chosen governor.
``trace``
    Trace subsystem: ``trace ingest`` parses a perf-stat or
    WattWatcher-style interval log into a replayable counter-trace
    CSV, ``trace generate`` writes the deterministic scenario corpus,
    and ``trace characterize`` runs traces through the Eq. 3
    memory-/core-bound classifier with frequency-sensitivity analysis.
``train``
    Re-derive the power/performance models from MS-Loops and print the
    Table II comparison.
``experiment``
    Regenerate one of the paper's tables/figures by id (e.g. ``fig7``,
    ``table4``) and print the same rows/series the paper reports.
``telemetry-report``
    Aggregate a telemetry directory written by ``run``/``experiment``
    with ``--telemetry`` (event log, tick trace, metrics, spans); a
    ``--faults`` run adds injected-vs-recovered counts, an ``--adapt``
    run its drift detections, recalibrations and rollbacks.

``run`` and ``experiment`` accept ``--telemetry DIR`` to export the full
observability bundle -- ``events.jsonl`` with its tick-column file
``events.f64``, ``metrics.json`` and ``summary.txt`` -- for the
instrumented monitor -> estimate -> control loop, ``--faults SPEC`` to
drill the run with a seeded fault plan (JSON, or YAML when PyYAML is
installed) against the hardened controller, and ``--adapt`` to turn on
online model adaptation (recursive calibration + drift detection +
versioned model registry) for PM-family governors. All flags are
validated up front, before any simulation work starts.

Parallel execution: ``experiment --workers N`` fans the experiment's
sweeps out over N worker processes (per-cell results are bit-identical
to serial execution), and ``run --plan FILE.json [--workers N]``
executes a serialized :class:`~repro.exec.RunPlan` batch.

``campaign run|status|retry`` is the resilient flavour of ``run
--plan``: completed cells persist in a content-addressed result store
(re-invocations execute only the remainder, cache hits verified
bit-identical), dispatch is lease-based with heartbeats and bounded
re-issue, and a cell that keeps failing is quarantined with its
failure history while the rest of the campaign completes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Mapping

from repro.core.controller import RunResult
from repro.core.models.power import LinearPowerModel, PAPER_TABLE_II
from repro.errors import CheckpointError, ReproError
from repro.exec.plan import ExperimentConfig, GovernorSpec, RunCell
from repro.workloads.registry import default_registry, get_workload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-power",
        description=(
            "Application-aware power management (IISWC'06 reproduction) "
            "on a simulated Pentium M 755."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available workloads")

    run = sub.add_parser("run", help="run a workload under a governor")
    run.add_argument(
        "workload", nargs="?", default=None,
        help="workload name (see 'list'), trace:FILE.csv, or "
        "corpus:NAME[@SEED]; omitted with --resume",
    )
    run.add_argument(
        "--workload", dest="workload_opt", metavar="SPEC", default=None,
        help="alternative to the positional workload (same forms)",
    )
    # The governor, scale and seed flags default to None so that ``run
    # --plan`` and ``run --resume`` can refuse a given one; a single run
    # fills in _RUN_DEFAULTS.
    run.add_argument(
        "--governor",
        choices=("pm", "ps", "fixed", "dbs", "adaptive-pm", "edp"),
        help="governor (default pm)",
    )
    run.add_argument(
        "--limit", type=float,
        help="PM power limit in watts (default 14.5)",
    )
    run.add_argument(
        "--floor", type=float,
        help="PS performance floor fraction (default 0.8)",
    )
    run.add_argument(
        "--frequency", type=float,
        help="fixed-governor frequency in MHz (default 2000)",
    )
    run.add_argument(
        "--scale", type=float, help="workload scale (default 0.5)"
    )
    run.add_argument("--seed", type=int, help="experiment seed (default 0)")
    run.add_argument(
        "--model", metavar="FILE.json",
        help="load a saved power model instead of training",
    )
    run.add_argument(
        "--use-paper-model", action="store_true",
        help="use the published Table II coefficients instead of "
        "training on MS-Loops",
    )
    run.add_argument(
        "--trace", metavar="FILE.csv",
        help="export the per-tick trace as CSV",
    )
    run.add_argument(
        "--telemetry", metavar="DIR",
        help="export events.jsonl (tick columns in events.f64), "
        "metrics.json and summary.txt for this run into DIR",
    )
    run.add_argument(
        "--faults", metavar="SPEC",
        help="inject faults from a JSON/YAML fault plan and run the "
        "hardened controller",
    )
    run.add_argument(
        "--adapt", action="store_true",
        help="enable online model adaptation (PM-family governors "
        "only): recursive calibration, drift detection, versioned "
        "model registry",
    )
    run.add_argument(
        "--registry", metavar="FILE.json",
        help="with --adapt: save the run's versioned model registry "
        "(baseline + every recalibration, with provenance) to FILE",
    )
    run.add_argument(
        "--checkpoint", metavar="DIR",
        help="record the run's options in DIR before it starts "
        "(rerunnable with --resume DIR)",
    )
    run.add_argument(
        "--resume", metavar="DIR",
        help="rerun an interrupted run from the options recorded in "
        "DIR; the result is bit-identical to an uninterrupted run",
    )
    run.add_argument(
        "--result-json", metavar="FILE.json",
        help="write a float-exact digest of the RunResult to FILE "
        "(what the chaos harness compares across processes)",
    )
    run.add_argument(
        "--plan", metavar="FILE.json",
        help="execute a serialized RunPlan batch instead of a single "
        "workload (see repro.exec.RunPlan.to_json)",
    )
    run.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="with --plan: fan the plan's cells out over N worker "
        "processes (results are bit-identical to serial)",
    )

    train = sub.add_parser(
        "train", help="train the models on MS-Loops and compare to Table II"
    )
    train.add_argument(
        "--save", metavar="FILE.json",
        help="persist the fitted power model as JSON",
    )

    experiment = sub.add_parser(
        "experiment", help="regenerate one of the paper's tables/figures"
    )
    experiment.add_argument(
        "id",
        nargs="?",
        default=None,
        choices=sorted(_EXPERIMENTS),
        help="which table/figure to regenerate; omitted with --resume",
    )
    experiment.add_argument("--scale", type=float, default=None)
    experiment.add_argument(
        "--checkpoint", metavar="DIR",
        help="keep every completed run in the result store DIR, "
        "resumable with --resume DIR",
    )
    experiment.add_argument(
        "--resume", metavar="DIR",
        help="resume an interrupted experiment under the id, scale, "
        "--faults and --adapt recorded in DIR: stored runs are served "
        "from DIR, the rest run from scratch",
    )
    experiment.add_argument(
        "--telemetry", metavar="DIR",
        help="instrument every run of the experiment and export the "
        "telemetry bundle into DIR",
    )
    experiment.add_argument(
        "--faults", metavar="SPEC",
        help="inject faults from a JSON/YAML fault plan into every "
        "governed run of the experiment",
    )
    experiment.add_argument(
        "--adapt", action="store_true",
        help="enable online model adaptation for every PM-family "
        "governed run of the experiment",
    )
    experiment.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="fan the experiment's sweeps out over N worker processes; "
        "per-cell results are bit-identical to serial execution",
    )

    campaign = sub.add_parser(
        "campaign",
        help="resilient campaigns: content-addressed result store, "
        "lease-based dispatch, poison-cell quarantine",
    )
    campaign_sub = campaign.add_subparsers(
        dest="campaign_command", required=True
    )

    def _campaign_run_args(p) -> None:
        p.add_argument(
            "--plan", required=True, metavar="FILE.json",
            help="serialized RunPlan (see RunPlan.to_json)",
        )
        p.add_argument(
            "--store", required=True, metavar="DIR",
            help="content-addressed result store (created on first use)",
        )
        p.add_argument(
            "--workers", type=int, default=2, metavar="N",
            help="worker pool size (default 2)",
        )
        p.add_argument(
            "--max-attempts", type=int, default=3, metavar="N",
            help="lease attempts per cell before quarantine (default 3)",
        )
        p.add_argument(
            "--lease-s", type=float, default=10.0, metavar="S",
            help="lease term; a cell whose worker stops heartbeating "
            "this long is re-issued (default 10)",
        )
        p.add_argument(
            "--backoff-s", type=float, default=0.1, metavar="S",
            help="base re-issue backoff, doubled per attempt "
            "(default 0.1)",
        )
        p.add_argument(
            "--max-seconds", type=float, default=None, metavar="S",
            help="wall-clock budget; on expiry the invocation returns "
            "a valid partial result the next one resumes from",
        )
        p.add_argument(
            "--telemetry", metavar="DIR", default=None,
            help="telemetry directory (default STORE/telemetry; "
            "'none' disables)",
        )

    campaign_run = campaign_sub.add_parser(
        "run", help="run (or resume) a plan against a result store"
    )
    _campaign_run_args(campaign_run)

    campaign_retry = campaign_sub.add_parser(
        "retry",
        help="clear the plan's quarantine records, then run again",
    )
    _campaign_run_args(campaign_retry)

    campaign_status = campaign_sub.add_parser(
        "status", help="render a campaign's progress from store + events"
    )
    campaign_status.add_argument(
        "--store", required=True, metavar="DIR",
        help="the campaign's result store",
    )
    campaign_status.add_argument(
        "--plan", metavar="FILE.json", default=None,
        help="match the store against this plan for exact "
        "done/remaining counts",
    )
    campaign_status.add_argument(
        "--telemetry", metavar="DIR", default=None,
        help="telemetry directory to read events from "
        "(default STORE/telemetry)",
    )
    campaign_status.add_argument(
        "--json", action="store_true",
        help="emit the raw status snapshot as JSON",
    )

    telemetry_report = sub.add_parser(
        "telemetry-report",
        help="aggregate a telemetry directory written with --telemetry",
    )
    telemetry_report.add_argument(
        "directory", help="directory produced by run/experiment --telemetry"
    )

    trace = sub.add_parser(
        "trace",
        help="ingest, generate, and characterize counter traces",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    ingest = trace_sub.add_parser(
        "ingest",
        help="parse a perf-stat/WattWatcher interval log into a "
        "replayable counter-trace CSV",
    )
    ingest.add_argument(
        "source", help="interval counter log (perf stat -I output or a "
        "counter-per-column CSV)",
    )
    ingest.add_argument(
        "--out", required=True, metavar="FILE.csv",
        help="where to write the calibrated counter-trace CSV",
    )
    ingest.add_argument(
        "--name", default=None,
        help="trace name (default: the source file's stem)",
    )
    ingest.add_argument(
        "--format", choices=("auto", "perf", "perf-csv", "wattwatcher"),
        default="auto", help="input format (default: auto-detect)",
    )
    ingest.add_argument(
        "--interval", type=float, default=None, metavar="SECONDS",
        help="force the sampling interval length instead of deriving "
        "it from timestamps",
    )
    ingest.add_argument(
        "--nominal-mhz", type=float, default=None, metavar="MHZ",
        help="clock to assume when the log has no cycle counter",
    )
    ingest.add_argument(
        "--decode-ratio", type=float, default=None, metavar="RATIO",
        help="decode ratio (DPC/IPC) to assume when the log has no "
        "decode counter (default: the derived platform ratio)",
    )
    ingest.add_argument(
        "--cumulative", action="store_true",
        help="treat counter columns as cumulative (running totals) "
        "instead of auto-detecting",
    )
    ingest.add_argument(
        "--no-calibrate", action="store_true",
        help="keep the raw counters instead of snapping them into the "
        "platform envelope",
    )

    generate = trace_sub.add_parser(
        "generate",
        help="write the deterministic scenario corpus as trace CSVs",
    )
    generate.add_argument(
        "--out", required=True, metavar="DIR",
        help="directory to write <scenario>.trace.csv files into",
    )
    generate.add_argument("--seed", type=int, default=0)

    characterize = trace_sub.add_parser(
        "characterize",
        help="classify traces (Eq. 3 memory-/core-bound) with "
        "frequency-sensitivity analysis",
    )
    characterize.add_argument(
        "paths", nargs="+",
        help="trace CSV files and/or directories of them",
    )
    characterize.add_argument(
        "--json", metavar="FILE.json", default=None,
        help="also write the characterization as a JSON document",
    )

    report = sub.add_parser(
        "report", help="run every experiment and write a markdown report"
    )
    report.add_argument(
        "--output", default="reproduction_report.md",
        help="output path (default reproduction_report.md)",
    )
    report.add_argument("--scale", type=float, default=0.5)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument(
        "--only", nargs="*", default=None,
        help="restrict to experiments whose module name contains any of "
        "these substrings",
    )
    return parser


def _cmd_list() -> int:
    registry = default_registry()
    print(f"{'name':18} {'category':15} description")
    print("-" * 78)
    for workload in sorted(registry, key=lambda w: (w.category, w.name)):
        description = workload.description.split(".")[0][:44]
        print(f"{workload.name:18} {workload.category:15} {description}")
    return 0


def _args_power_model(args) -> str | LinearPowerModel:
    """The ``GovernorSpec.power_model`` the run flags describe."""
    if getattr(args, "model", None):
        from repro.core.models.persistence import power_model_from_json

        with open(args.model) as handle:
            return power_model_from_json(handle.read())
    if args.use_paper_model:
        return "paper"
    return "trained"


def _args_governor_spec(args) -> GovernorSpec:
    """Map the ``run`` flags onto a declarative :class:`GovernorSpec`.

    This is the single spec builder both the fresh-run and the
    ``--resume`` paths go through (the store's recorded spec rewrites
    ``args`` and re-enters ``_cmd_run``).
    """
    if args.governor == "ps":
        return GovernorSpec.ps(args.floor)
    if args.governor == "dbs":
        return GovernorSpec.dbs()
    if args.governor == "fixed":
        return GovernorSpec.fixed(args.frequency)
    power_model = _args_power_model(args)
    if power_model == "trained":
        # Train (and cache) up front so the progress note lands before
        # the run starts, exactly like the pre-RunPlan CLI did.
        _trained_model(args.seed)
    if args.governor == "adaptive-pm":
        return GovernorSpec.adaptive_pm(args.limit, power_model=power_model)
    if args.governor == "edp":
        return GovernorSpec.edp(power_model=power_model)
    return GovernorSpec.pm(args.limit, power_model=power_model)


def _trained_model(seed: int) -> LinearPowerModel:
    from repro.exec.cache import trained_power_model

    print("training power model on MS-Loops...", file=sys.stderr)
    return trained_power_model(seed=seed)


def _validate_telemetry_path(directory: str | None) -> None:
    """Fail fast on an unusable ``--telemetry`` target.

    A typo'd parent directory should abort before minutes of simulation,
    not after, when the exporter finally tries to write.
    """
    if not directory:
        return
    from repro.errors import TelemetryError

    parent = os.path.dirname(os.path.abspath(directory))
    if not os.path.isdir(parent):
        raise TelemetryError(
            f"--telemetry: parent directory does not exist: {parent}"
        )
    if os.path.exists(directory) and not os.path.isdir(directory):
        raise TelemetryError(
            f"--telemetry: {directory} exists and is not a directory"
        )


def _load_faults_arg(spec: str | None):
    """Parse and validate ``--faults SPEC`` up front (or return None)."""
    if not spec:
        return None
    from repro.faults import load_fault_plan

    return load_fault_plan(spec)


def _adapt_arg(adapt: bool):
    """The adaptation config ``--adapt`` asks for (or None)."""
    if not adapt:
        return None
    from repro.adaptation import AdaptationConfig

    return AdaptationConfig()


def _make_telemetry(directory: str | None):
    """Recorder + directory sink for ``--telemetry`` (or ``(None, None)``)."""
    if not directory:
        return None, None
    from repro.telemetry import TelemetryDirectory, TelemetryRecorder

    recorder = TelemetryRecorder()
    sink = TelemetryDirectory(directory)
    sink.attach(recorder)
    return recorder, sink


def _print_fault_summary(injector, result: RunResult) -> None:
    print(f"faults       : {injector.total_injected} injected "
          + ", ".join(f"{k}: {v}" for k, v in sorted(injector.injected.items())))
    if result.recoveries:
        print("recoveries   : "
              + ", ".join(f"{k}: {v}"
                          for k, v in sorted(result.recoveries.items())))
    if result.degraded:
        print("degraded     : yes (completed on the fail-safe p-state)")


def _print_adaptation_summary(manager) -> None:
    summary = manager.summary()
    if not summary["engaged"]:
        print("adaptation   : not engaged (governor has no swappable model)")
        return
    print(f"adaptation   : {summary['drift_detections']} drift detections, "
          f"{summary['recalibrations']} recalibrations, "
          f"{summary['rollbacks']} rollbacks "
          f"(registry: {summary['registered_versions']} versions, "
          f"v{summary['active_version']} active)")


#: CLI args ``run --checkpoint`` records in its store's spec so ``run
#: --resume`` can rerun the run from them alone; ``run --resume``
#: refuses each of them.
_RUN_SPEC_KEYS = (
    "workload", "governor", "limit", "floor", "frequency", "scale",
    "seed", "model", "use_paper_model", "adapt", "faults",
)

#: What a single ``run`` takes for each of these flags it was not given.
_RUN_DEFAULTS = {
    "governor": "pm", "limit": 14.5, "floor": 0.8, "frequency": 2000.0,
    "scale": 0.5, "seed": 0,
}

#: ``run`` args a plan file's cells and config replace: ``run --plan``
#: refuses each of them rather than ignore it.
_PLAN_REFUSED = (
    "workload", "resume", "checkpoint", "faults", "adapt", "trace",
    "result_json", "registry", "model", "use_paper_model",
    *_RUN_DEFAULTS,
)


def _write_result_json(result: RunResult, path: str) -> None:
    import json

    from repro.checkpoint import run_result_digest
    from repro.ioutils import atomic_write_text

    atomic_write_text(
        path,
        json.dumps(run_result_digest(result), indent=2, sort_keys=True)
        + "\n",
    )


def _finish_run(result, args, injector, adaptation, recorder, sink) -> int:
    """Post-run reporting: summaries, exports, telemetry bundle."""
    _print_summary(result, args)
    if injector is not None:
        _print_fault_summary(injector, result)
    if adaptation is not None:
        _print_adaptation_summary(adaptation)
        if args.registry:
            adaptation.registry.save(args.registry)
            print(f"model registry saved to {args.registry}")
    if args.trace:
        _export_trace(result, args.trace)
        print(f"trace written to {args.trace}")
    if args.result_json:
        _write_result_json(result, args.result_json)
        print(f"result digest written to {args.result_json}")
    if sink is not None:
        sink.finalize(recorder)
        print(f"telemetry written to {sink.path}")
    return 0


def _resume_store(directory: str):
    """The result store ``--resume DIR`` names (a results journal an
    earlier release wrote is refused, not converted)."""
    from repro.campaign.store import ResultStore

    journal = os.path.join(directory, "manifest.json")
    if os.path.exists(journal):
        raise CheckpointError(
            f"{journal} belongs to a results journal, which this build "
            "no longer reads; rerun with --checkpoint and a new directory"
        )
    return ResultStore(directory, create=False)


def _refuse_given(args, keys, message: str) -> None:
    """Raise ``message`` (``{flag}``: the flag) for the first of
    ``keys`` given on the command line.  A flag left at its default is
    None or False; 0 is given."""
    for key in keys:
        value = getattr(args, key)
        if value is None or value is False:
            continue
        flag = (
            "a workload" if key == "workload" else "--" + key.replace("_", "-")
        )
        raise ReproError(message.format(flag=flag))


def _cmd_run_resume(args) -> int:
    """Rerun an interrupted run from the options its store recorded.

    Runs are deterministic, so the rerun's result is bit-identical to
    the one the interrupted process would have produced.  A recorded
    option given again is refused, not silently replaced.
    """
    _refuse_given(
        args, _RUN_SPEC_KEYS,
        "--resume takes {flag} from the store's recorded run; "
        "do not pass it",
    )
    with _resume_store(args.resume) as store:
        spec = store.spec.get("run")
    if not isinstance(spec, dict):
        raise CheckpointError(
            f"store {args.resume} records {json.dumps(store.spec)}, "
            "not a single run"
        )
    for key in _RUN_SPEC_KEYS:
        if key in spec:
            setattr(args, key, spec[key])
    args.resume = None
    return _cmd_run(args)


def _cmd_run_plan(args) -> int:
    """Execute a serialized RunPlan batch (``run --plan FILE.json``)."""
    from repro.exec.plan import RunPlan
    from repro.exec.session import open_session

    _refuse_given(
        args, _PLAN_REFUSED,
        "--plan cannot be combined with {flag}: the plan file's cells "
        "and config describe every run",
    )
    with open(args.plan) as handle:
        plan = RunPlan.from_json(handle.read())
    with open_session(
        workers=args.workers, telemetry_dir=args.telemetry
    ) as session:
        results = session.run_plan(plan)
    mode = (
        f"{args.workers} workers" if args.workers >= 1 else "serial"
    )
    print(f"plan: {len(plan)} cells ({mode})")
    for cell, result in zip(plan.cells, results):
        print(
            f"  {cell.label:32} {result.duration_s:8.3f} s  "
            f"{result.mean_power_w:6.2f} W  "
            f"{result.measured_energy_j:8.2f} J"
        )
    if args.telemetry:
        print(f"telemetry written to {args.telemetry}")
    return 0


def _resolve_workload_arg(args) -> None:
    """Merge the positional workload and ``--workload`` into one value."""
    if getattr(args, "workload_opt", None):
        if args.workload and args.workload != args.workload_opt:
            raise ReproError(
                "both a positional workload and --workload were given; "
                "pass one"
            )
        args.workload = args.workload_opt


def _cmd_run(args) -> int:
    _validate_telemetry_path(args.telemetry)
    _resolve_workload_arg(args)
    if args.plan:
        return _cmd_run_plan(args)
    if args.resume and args.checkpoint:
        raise ReproError("--resume and --checkpoint are mutually exclusive")
    if args.resume:
        return _cmd_run_resume(args)
    if not args.workload:
        raise ReproError("workload is required (unless resuming)")
    if args.workers:
        raise ReproError("--workers applies only to --plan; a single run "
                         "runs in this process")
    for key, value in _RUN_DEFAULTS.items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    fault_plan = _load_faults_arg(args.faults)
    if args.registry and not args.adapt:
        raise ReproError("--registry requires --adapt")
    from repro.exec.core import prepare_cell
    from repro.workloads.registry import is_workload_spec

    # Fail fast on unknown names / unreadable trace files, before any
    # training or simulation starts.  Spec resolution also warms the
    # per-process trace-workload cache the cell will hit again.
    if is_workload_spec(args.workload):
        from repro.exec.cache import spec_workload

        spec_workload(args.workload)
    else:
        get_workload(args.workload)
    config = ExperimentConfig(
        scale=args.scale, seed=args.seed, keep_trace=bool(args.trace)
    )
    cell = RunCell(
        workload=args.workload,
        governor=_args_governor_spec(args),
        fault_plan=fault_plan,
        adaptation=_adapt_arg(args.adapt),
    )
    recorder, sink = _make_telemetry(args.telemetry)
    prepared = prepare_cell(cell, config, recorder)
    if args.checkpoint:
        from repro.campaign.store import ResultStore

        spec = {key: getattr(args, key) for key in _RUN_SPEC_KEYS}
        ResultStore(args.checkpoint, spec={"run": spec}).close()
    result = prepared.execute()
    return _finish_run(
        result, args, prepared.injector, prepared.adaptation, recorder, sink
    )


def _print_summary(result: RunResult, args) -> None:
    print(f"workload     : {result.workload}")
    print(f"governor     : {result.governor}")
    print(f"time         : {result.duration_s:.3f} s")
    print(f"instructions : {result.instructions / 1e9:.2f} G "
          f"({result.ips / 1e9:.2f} G/s)")
    print(f"mean power   : {result.mean_power_w:.2f} W")
    print(f"energy       : {result.measured_energy_j:.2f} J")
    print(f"transitions  : {result.transitions}")
    residency = ", ".join(
        f"{freq:.0f} MHz: {seconds:.2f}s"
        for freq, seconds in sorted(result.residency_s.items())
    )
    print(f"residency    : {residency}")
    if args.governor in ("pm", "adaptive-pm"):
        violation = result.violation_fraction(args.limit)
        print(f"violations   : {violation:.1%} of 100 ms windows over "
              f"{args.limit} W")


def _export_trace(result: RunResult, path: str) -> None:
    # One trace row format: the telemetry exporters own the column
    # layout, also for a trace rendered from a bundle's tick columns.
    from repro.telemetry.exporters import write_trace_csv

    write_trace_csv(result.trace, path)


def _cmd_train(args) -> int:
    from repro.core.models.training import (
        exponent_error_curve,
        fit_performance_model,
        local_minima,
    )
    from repro.exec.cache import trained_power_model, training_points

    points = training_points()
    model = trained_power_model()
    print("Table II (fitted vs paper):")
    for freq in model.frequencies_mhz:
        c = model.coefficients(freq)
        p = PAPER_TABLE_II[freq]
        print(f"  {freq:6.0f} MHz  alpha {c.alpha:5.2f} (paper {p.alpha:5.2f})"
              f"  beta {c.beta:6.2f} (paper {p.beta:6.2f})")
    perf = fit_performance_model(points)
    print(f"performance model: threshold {perf.dcu_threshold:.2f}, "
          f"exponent {perf.memory_exponent:.2f} (paper: 1.21 / 0.81)")
    minima = local_minima(exponent_error_curve(points))
    print(f"exponent local minima at threshold 1.21: "
          f"{[round(m, 2) for m in minima]}")
    if args.save:
        from repro.core.models.persistence import power_model_to_json

        with open(args.save, "w") as handle:
            handle.write(power_model_to_json(model))
        print(f"power model saved to {args.save}")
    return 0


def _experiment_runner(module_name: str) -> Callable[[float | None], str]:
    def run_it(scale: float | None) -> str:
        import importlib

        from repro.experiments.runner import run_section

        module = importlib.import_module(f"repro.experiments.{module_name}")
        config = ExperimentConfig(scale=scale) if scale else None
        if hasattr(module, "plan"):
            return module.render(run_section(module, config))
        return module.render(module.run(config))  # a drill

    return run_it


_EXPERIMENTS: Mapping[str, Callable[[float | None], str]] = {
    "fig1": _experiment_runner("fig1_power_variation"),
    "fig2": _experiment_runner("fig2_pstate_impact"),
    "fig5": _experiment_runner("fig5_pm_trace"),
    "fig6": _experiment_runner("fig6_perf_vs_limit"),
    "fig7": _experiment_runner("fig7_pm_speedup"),
    "fig8": _experiment_runner("fig8_ps_trace"),
    "fig9": _experiment_runner("fig9_ps_suite"),
    "fig10": _experiment_runner("fig10_ps_energy"),
    "fig11": _experiment_runner("fig11_ps_perf"),
    "table2": _experiment_runner("table2_power_model"),
    "table3": _experiment_runner("table3_worst_case"),
    "table4": _experiment_runner("table4_static_freq"),
    "accuracy": _experiment_runner("model_accuracy"),
    "characterization": _experiment_runner("characterization"),
    "corpus": _experiment_runner("corpus_characterization"),
    "hierarchy": _experiment_runner("hierarchy_probe"),
    "drift": _experiment_runner("adaptation_drift"),
    "chaos": _experiment_runner("chaos_resume"),
    "multicore": _experiment_runner("multicore_scaling"),
    "campaign": _experiment_runner("campaign_drill"),
}


def _cmd_experiment(args) -> int:
    _validate_telemetry_path(getattr(args, "telemetry", None))
    if args.resume and args.checkpoint:
        raise ReproError("--resume and --checkpoint are mutually exclusive")
    if args.resume and (args.id or args.faults or args.adapt):
        raise ReproError("--resume takes the experiment id, --faults and "
                         "--adapt from the store; do not pass them")
    if not args.resume and not args.id:
        raise ReproError("experiment id is required (unless resuming)")
    fault_plan = _load_faults_arg(args.faults)
    workers = getattr(args, "workers", 0) or 0
    if workers < 0:
        raise ReproError("--workers must be >= 0")
    telemetry = getattr(args, "telemetry", None)
    recorder = None
    if telemetry:
        from repro.telemetry import TelemetryRecorder

        recorder = TelemetryRecorder()
    store = None
    if args.checkpoint:
        from repro.campaign.store import ResultStore

        spec = {"experiment": args.id, "scale": args.scale}
        if fault_plan is not None:
            spec["faults"] = fault_plan.to_dict()
        if args.adapt:
            spec["adapt"] = True
        store = ResultStore(args.checkpoint, spec=spec)
    elif args.resume:
        store = _resume_store(args.resume)
        args.id = store.spec.get("experiment")
        if args.id not in _EXPERIMENTS:
            store.close()
            raise CheckpointError(
                f"store {args.resume} records {json.dumps(store.spec)}, "
                "not an experiment this build runs"
            )
        if args.scale is None:
            args.scale = store.spec.get("scale")
        if store.spec.get("faults") is not None:
            from repro.faults import FaultPlan

            fault_plan = FaultPlan.from_dict(store.spec["faults"])
        args.adapt = bool(store.spec.get("adapt"))

    from contextlib import ExitStack

    from repro.exec.session import open_session

    # One session reaches every run the experiment makes, however
    # deep: it stamps --faults/--adapt on each cell that leaves them
    # unset (each run then builds its own seeded injector and fresh
    # adaptation manager), cells the store holds are served from it
    # (the rest run from scratch and are stored), and sweeps fan out
    # over the workers bit-identically to serial execution.
    with ExitStack() as stack:
        if store is not None:
            stack.enter_context(store)  # closing it fsyncs the log once
        stack.enter_context(open_session(
            workers=workers,
            telemetry=recorder,
            telemetry_dir=telemetry or None,
            faults=fault_plan,
            adaptation=_adapt_arg(args.adapt),
            store=store,
        ))
        text = _EXPERIMENTS[args.id](args.scale)
    print(text)
    if store is not None and store.hits:
        print(f"(replayed {store.hits} archived runs from "
              f"{args.checkpoint or args.resume})", file=sys.stderr)
    if telemetry:
        if workers:
            from repro.telemetry.merge import find_worker_directories

            merged = len(find_worker_directories(telemetry))
            if merged:
                print(
                    f"merged telemetry from {merged} worker "
                    f"director{'y' if merged == 1 else 'ies'}",
                    file=sys.stderr,
                )
        print(f"telemetry written to {telemetry}")
    return 0


def _load_plan_file(path: str):
    from repro.exec.plan import RunPlan

    with open(path) as handle:
        return RunPlan.from_json(handle.read())


def _cmd_campaign(args) -> int:
    from repro.campaign import Campaign, campaign_status, render_status

    if args.campaign_command == "status":
        plan = _load_plan_file(args.plan) if args.plan else None
        data = campaign_status(
            args.store, telemetry_dir=args.telemetry, plan=plan
        )
        if args.json:
            print(json.dumps(data, indent=2, sort_keys=True))
        else:
            print(render_status(data))
        return 0

    from repro.campaign import ResultStore

    plan = _load_plan_file(args.plan)
    store = ResultStore(args.store)  # create first: telemetry nests inside
    telemetry_dir = (
        None
        if args.telemetry == "none"
        else args.telemetry or os.path.join(store.root, "telemetry")
    )
    _validate_telemetry_path(telemetry_dir)
    recorder, sink = _make_telemetry(telemetry_dir)
    campaign = Campaign(
        plan,
        store,
        workers=args.workers,
        max_attempts=args.max_attempts,
        lease_s=args.lease_s,
        backoff_s=args.backoff_s,
        max_seconds=args.max_seconds,
        telemetry=recorder,
        telemetry_root=telemetry_dir,
    )
    if args.campaign_command == "retry":
        cleared = campaign.retry_quarantined()
        print(f"cleared {cleared} quarantine record(s)")
    try:
        result = campaign.run()
    finally:
        if sink is not None:
            sink.finalize(recorder)
            from repro.telemetry.merge import merge_worker_directories

            merge_worker_directories(sink.path)
    summary = result.to_dict()
    print(
        f"campaign: {summary['completed']}/{summary['total']} cells "
        f"({summary['executed']} executed, {summary['cached']} cached, "
        f"{summary['quarantined']} quarantined, {summary['lost']} lost)"
    )
    if result.resumed:
        print(f"resumed from {campaign.store.root}")
    if result.quarantined:
        print(
            "quarantined cells: "
            + ", ".join(
                plan.cells[index].label for index in result.quarantined
            )
        )
        print("(inspect with 'campaign status'; clear with "
              "'campaign retry')")
    if result.interrupted:
        print("interrupted: partial result stored; re-invoke to resume")
    if result.degraded:
        print("degraded: yes")
    if telemetry_dir:
        print(f"telemetry written to {telemetry_dir}")
    # Quarantined cells are a *handled* outcome; only an incomplete
    # campaign (lost cells / interrupt) exits non-zero.
    return 1 if (result.lost or result.interrupted) else 0


def _cmd_telemetry_report(args) -> int:
    from repro.telemetry.report import render_report

    print(render_report(args.directory))
    return 0


def _trace_csv_paths(paths: list[str]) -> list[str]:
    """Expand files/directories into an ordered list of trace CSVs."""
    from repro.errors import WorkloadError

    out: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            entries = sorted(
                entry for entry in os.listdir(path)
                if entry.endswith(".csv")
            )
            if not entries:
                raise WorkloadError(
                    f"no trace CSVs (*.csv) in directory {path}"
                )
            out.extend(os.path.join(path, entry) for entry in entries)
        else:
            out.append(path)
    return out


def _cmd_trace_ingest(args) -> int:
    from repro.traces import calibrate_trace, ingest_file

    trace, report = ingest_file(
        args.source,
        name=args.name,
        fmt=args.format,
        interval_s=args.interval,
        nominal_mhz=args.nominal_mhz,
        decode_ratio=args.decode_ratio,
        cumulative=True if args.cumulative else None,
    )
    print(report.render())
    if not args.no_calibrate:
        trace, calibration = calibrate_trace(trace)
        print(calibration.render())
    trace.to_path(args.out)
    print(f"trace written to {args.out} "
          f"({len(trace)} intervals, {trace.duration_s:.1f} s)")
    return 0


def _cmd_trace_generate(args) -> int:
    from repro.traces import CORPUS_FAMILIES, write_corpus

    paths = write_corpus(args.out, seed=args.seed)
    for name, path in paths.items():
        print(f"  {name:20} -> {path}")
    families = ", ".join(sorted(CORPUS_FAMILIES))
    print(f"{len(paths)} traces in {len(CORPUS_FAMILIES)} families "
          f"({families}) written to {args.out}")
    return 0


def _cmd_trace_characterize(args) -> int:
    from repro.traces import characterization_json, characterize_traces
    from repro.traces.characterize import render_characterization
    from repro.workloads.traces import CounterTrace

    traces = [
        CounterTrace.from_path(path)
        for path in _trace_csv_paths(args.paths)
    ]
    rows = characterize_traces(traces)
    print(render_characterization(rows))
    if args.json:
        from repro.ioutils import atomic_write_text

        atomic_write_text(args.json, characterization_json(rows) + "\n")
        print(f"characterization JSON written to {args.json}")
    return 0


def _cmd_trace(args) -> int:
    if args.trace_command == "ingest":
        return _cmd_trace_ingest(args)
    if args.trace_command == "generate":
        return _cmd_trace_generate(args)
    return _cmd_trace_characterize(args)


def _cmd_report(args) -> int:
    from repro.experiments.report_all import generate

    text = generate(
        default_scale=args.scale, seed=args.seed, sections=args.only
    )
    with open(args.output, "w") as handle:
        handle.write(text)
    print(f"report written to {args.output}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "telemetry-report":
            return _cmd_telemetry_report(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "report":
            return _cmd_report(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
