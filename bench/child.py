"""One fresh benchmark process: set up a workload, then time passes.

``run.py`` starts this file once per sample process.  It imports the
simulator, builds the workload's inputs from ``--seed`` and runs the
first step of a pass once -- together its set-up -- then times passes
until its share of the run's seconds is spent.  With ``--trace FILE``
it instead wraps the layer entry points (see ``layers.py``), runs one
pass traced and writes the spans and layer table to FILE.  Passes are
timed in steps bracketed by host speed probes (``host.py``).  The
result (set-up time, per-pass wall/scaled/CPU times, ticks and output
digests) goes to ``--out`` as JSON.

``--cli`` instead runs one ``repro.cli`` command, exactly as
``python -m repro.cli`` would, with a host probe before each report
section; the probe stamps go to ``--out`` and, with ``--trace FILE``,
the command's trace to FILE.

Only public surfaces are driven: ``open_session``, ``RunPlan``,
``Campaign`` and ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import importlib
import json
import os
import runpy
import shutil
import statistics
import sys
import time
import traceback

import host
import layers

from repro import (
    AdaptationConfig,
    Campaign,
    ExperimentConfig,
    FaultPlan,
    GovernorSpec,
    RunCell,
    RunPlan,
    default_registry,
    open_session,
    run_result_digest,
)

#: Fig. 9's PowerSave performance floors.
FLOORS = (0.80, 0.60, 0.40, 0.20)

#: Fig. 9's median-protocol seed offsets (three reps per cell).
REP_OFFSETS = (0, 100, 200)

#: pm-mixed's fault plan: dropped samples and failed transitions.
PM_FAULTS = {"seed": 0, "sample": {"drop_prob": 0.08},
             "transition": {"fail_prob": 0.4}}
PM_LIMIT_W = 14.5

#: Resumes per parallel-campaign cycle.
RESUMES = 3


def digest_list(results) -> str:
    """sha256 of the ordered ``run_result_digest`` list (None = missing)."""
    digests = [None if r is None else run_result_digest(r) for r in results]
    blob = json.dumps(digests, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def sim_ticks(results) -> int:
    """Simulated control ticks behind ``results``."""
    tick_s = ExperimentConfig().machine.tick_s
    return sum(
        round(r.duration_s / tick_s) for r in results if r is not None
    )


def fig9_plan(seed: int, scale: float = 1.0, reps=REP_OFFSETS) -> RunPlan:
    """The Fig. 9 sweep: SPEC suite x PS floors x median reps."""
    return RunPlan.sweep(
        [w.name for w in default_registry().spec_suite()],
        [GovernorSpec.ps(floor) for floor in FLOORS],
        ExperimentConfig(scale=scale, seed=seed),
        seeds=reps,
    )


def pm_mixed_plan(seed: int) -> RunPlan:
    """26 SPEC workloads x 5 per-tick-hook variants of PM."""
    pm = GovernorSpec.pm(PM_LIMIT_W)
    faults = FaultPlan.from_dict(PM_FAULTS)
    cells = []
    for workload in default_registry().spec_suite():
        name = workload.name
        cells += [
            RunCell(name, pm, group=name, fault_plan=faults),
            RunCell(name, pm, group=name, adaptation=AdaptationConfig()),
            RunCell(name, GovernorSpec.adaptive_pm(PM_LIMIT_W), group=name),
            RunCell(name, pm, group=name, threads=2),
            RunCell(name, GovernorSpec.energy_optimal(), group=name,
                    threads=2),
        ]
    return RunPlan(ExperimentConfig(scale=1.0, seed=seed), tuple(cells))


class Workload:
    """A plan run serially through one ``open_session`` per pass.

    The pass is timed in steps of ``step_cells`` cells (``run_plan`` on
    consecutive slices of the plan inside the one session), so that a
    host speed probe brackets every ≈0.5 s of work.
    """

    def __init__(self, plan: RunPlan, workdir: str, step_cells: int = 0):
        self.plan = plan
        self.workdir = workdir
        self.passes = 0
        size = step_cells or len(plan)
        self.chunks = [
            dataclasses.replace(plan, cells=plan.cells[i:i + size])
            for i in range(0, len(plan), size)
        ]

    def session(self):
        return open_session()

    def warm_up(self) -> dict:
        """Run a pass's first step once, so that the caches it fills
        lazily (trained models, projection tables) are full before any
        pass is timed; returns its operation counts."""
        start = time.perf_counter()
        with self.session() as session:
            results = session.run_plan(self.chunks[0])
        return {"attempted": len(results),
                "failed": sum(r is None for r in results),
                "wall_s": time.perf_counter() - start}

    def run_pass(self, steps: host.Steps) -> dict:
        """Run one pass in timed steps; returns its outputs."""
        results = []
        last = len(self.chunks) - 1
        with contextlib.ExitStack() as stack:
            for index, chunk in enumerate(self.chunks):
                with steps.step():
                    if index == 0:
                        session = stack.enter_context(self.session())
                    results += session.run_plan(chunk)
                    if index == last:
                        stack.close()  # the session's exit is timed too
        return {"results": results}

    def check(self, out: dict) -> dict:
        """Digests, ticks and operation counts of one pass's outputs."""
        results = out["results"]
        missing = sum(r is None for r in results)
        return {
            "attempted": len(self.plan),
            "failed": missing,
            "ticks": sim_ticks(results),
            "digests": [["plan", digest_list(results)]],
        }

    def cleanup(self) -> None:
        """Remove the pass's scratch files (outside the timed region)."""


class TelemetryWorkload(Workload):
    """The same serial run with a telemetry directory attached."""

    def session(self):
        self.passes += 1
        self.bundle = os.path.join(self.workdir, f"telemetry-{self.passes}")
        return open_session(telemetry_dir=self.bundle)

    def cleanup(self) -> None:
        shutil.rmtree(self.bundle, ignore_errors=True)


class CampaignWorkload(Workload):
    """Pool run, fresh campaign, then resumes of its store."""

    def session(self):
        return open_session(workers=2)

    def run_pass(self, steps: host.Steps) -> dict:
        self.passes += 1
        self.store = os.path.join(self.workdir, f"store-{self.passes}")
        with steps.step():
            with self.session() as session:
                pool = session.run_plan(self.plan)
        with steps.step():
            fresh = Campaign(self.plan, self.store, workers=2).run()
        resumes = []
        for _ in range(RESUMES):
            with steps.step():
                resumes.append(
                    Campaign(self.plan, self.store, workers=2).run()
                )
        pool_s, fresh_s, *resume_s = steps.walls
        return {
            "pool": pool, "fresh": fresh, "resumes": resumes,
            "times": {"pool_s": [pool_s], "campaign_fresh_s": [fresh_s],
                      "campaign_resume_s": resume_s},
            "pool_counts": {"restarts": session.last_runner.restarts,
                            "rescheduled": session.last_runner.rescheduled},
        }

    def check(self, out: dict) -> dict:
        cells = len(self.plan)
        runs = [out["fresh"], *out["resumes"]]
        failed = sum(r is None for r in out["pool"])
        for index, run in enumerate(runs):
            short = set(run.quarantined) | set(run.lost)
            if index > 0:  # a resume must be served fully from the store
                short |= set(run.executed)
                short |= set(range(cells)) - set(run.cached)
            failed += len(short)
        # Pool, fresh and resumed results must all equal the serial plan.
        digests = [["plan", digest_list(out["pool"])]]
        digests += [["plan", digest_list(run.results)] for run in runs]
        quarantined = sum(len(r.quarantined) for r in runs)
        lost = sum(len(r.lost) for r in runs)
        cached = sum(len(r.cached) for r in runs)
        return {
            "attempted": cells * (1 + len(runs)),
            "failed": failed,
            "ticks": sim_ticks(out["pool"]) + sim_ticks(out["fresh"].results),
            "digests": digests,
            "times": out["times"],
            "counts": dict(out["pool_counts"], quarantined=quarantined,
                           lost=lost, cached=cached,
                           campaign_cells=cells * len(runs)),
        }

    def cleanup(self) -> None:
        shutil.rmtree(self.store, ignore_errors=True)


def build(name: str, seed: int, workdir: str) -> Workload:
    """The workload ``name`` with inputs made from ``seed``."""
    if name == "fig9":
        return Workload(fig9_plan(seed), workdir)
    if name == "fig9-telemetry":
        return TelemetryWorkload(fig9_plan(seed, reps=(0,)), workdir, 13)
    if name == "pm-mixed":
        return Workload(pm_mixed_plan(seed), workdir, 26)
    if name == "parallel-campaign":
        return CampaignWorkload(fig9_plan(seed, scale=0.25), workdir)
    raise SystemExit(f"unknown in-process workload {name!r}")


def timed_pass(workload: Workload, tracer=None) -> dict:
    """Run, time and check one pass; a raise fails the whole pass.

    ``wall_s`` and ``cpu_s`` cover the steps only, not the probes
    between them; ``steps`` holds each step at the reference host speed
    and ``ref_s`` their sum.
    """
    steps = host.Steps()
    try:
        out = workload.run_pass(steps)
    except Exception:  # noqa: BLE001 - counted and reported, not fatal
        return {
            "attempted": len(workload.plan),
            "failed": len(workload.plan),
            "error": traceback.format_exc(),
        }
    finally:
        if tracer is not None:
            tracer.uninstall()  # the benchmark's own digesting is not traced
    scaled = steps.scaled()
    record = {
        "wall_s": sum(steps.walls),
        "ref_s": sum(scaled),
        "steps": scaled,
        "cpu_s": steps.cpu,
        "probe_s": statistics.median(steps.probes),
        "first_probe_s": steps.probes[0],
    }
    record.update(workload.check(out))
    workload.cleanup()
    return record


def write_trace(path: str, tracer) -> None:
    """Spans, the per-layer table and host readings as JSON."""
    names = sorted({span[0] for span in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    payload = {
        "layers": tracer.table(),
        "host": tracer.host,
        "absent": tracer.absent(),
        "span_names": names,
        "spans": [[index[m], round(s, 7), round(e, 7), p, c]
                  for m, s, e, p, c in tracer.spans],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle)


def run_workload(args) -> dict:
    """Set up, warm up and time one workload in this process."""
    workdir = os.path.join(args.workdir, f"child-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    imported = time.monotonic() - args.t0
    workload = build(args.workload, args.seed, workdir)
    try:
        warmup = workload.warm_up()
    except Exception:  # noqa: BLE001 - counted and reported, not fatal
        cells = len(workload.chunks[0])
        warmup = {"attempted": cells, "failed": cells,
                  "error": traceback.format_exc()}
    setup = time.monotonic() - args.t0
    record = {"import_s": imported, "setup_s": setup, "warmup": warmup}
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
        record["traced"] = timed_pass(workload, tracer)
        write_trace(args.trace, tracer)
    else:
        passes = []
        measure_start = time.perf_counter()
        while True:
            passes.append(timed_pass(workload))
            spent = time.perf_counter() - measure_start
            mean = spent / len(passes)
            if spent + mean > args.share:
                break
        # Set-up is bracketed by the parent's probe right before the
        # start and the first pass's opening probe.
        after = passes[0].get("first_probe_s", args.probe)
        record["setup_ref_s"] = host.at_ref(setup, (args.probe + after) / 2)
        record["passes"] = passes
    shutil.rmtree(workdir, ignore_errors=True)
    return record


def probe_sections(probes: list) -> list:
    """Run a host probe before every report section.

    Each probe is appended to ``probes`` as its (start, end) on the
    system-wide monotonic clock, so the parent can time the command in
    stretches between probes (``host.segments``).  Returns the patched
    (module, original ``run``) pairs.
    """
    patched = []
    for name in layers.EXPERIMENT_MODULES:
        try:
            module = importlib.import_module(f"repro.experiments.{name}")
            section = module.run
        except (ImportError, AttributeError):
            continue
        module.run = _probed(section, probes)
        patched.append((module, section))
    return patched


def _probed(section, probes):
    @functools.wraps(section)
    def probed(*args, **kwargs):
        start = time.monotonic()
        host.probe_s()
        probes.append((start, time.monotonic()))
        return section(*args, **kwargs)
    return probed


def run_cli(args) -> int:
    """One ``repro.cli`` command, as ``python -m repro.cli`` runs it,
    with a host probe before each report section; ``--trace`` also
    traces its layers."""
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        import repro.cli  # noqa: F401 - load the modules the targets name

        tracer.install()
    probes: list = []
    patched = probe_sections(probes)
    sys.argv = ["repro-power", *args.cli]
    code = 0
    try:
        runpy.run_module("repro.cli", run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 1
    for module, section in patched:
        module.run = section
    with open(args.out, "w") as handle:
        json.dump({"probes": probes}, handle)
    if tracer is not None:
        tracer.uninstall()
        write_trace(args.trace, tracer)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--share", type=float, default=0.0,
                        help="seconds of timed passes after warm-up")
    parser.add_argument("--t0", type=float, default=None,
                        help="time.monotonic() when the parent started "
                        "this process")
    parser.add_argument("--probe", type=float, default=host.PROBE_REF_S,
                        help="the parent's host probe right before")
    parser.add_argument("--workdir", default=".")
    parser.add_argument("--out")
    parser.add_argument("--trace", default=None)
    parser.add_argument("--cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.cli:
        return run_cli(args)
    record = run_workload(args)
    with open(args.out, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
