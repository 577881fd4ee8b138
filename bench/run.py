"""The simulator's benchmark: five workloads, golden digests, layer traces.

Run every workload (about 80 s on a 2-CPU host)::

    python3 bench/run.py [--seed N]

or one workload at a time::

    python3 bench/run.py --workload fig9 --seed 3 --seconds 12 --trace 0

Each workload runs in fresh child processes (``child.py``) or, for
``cold-cli``, as fresh ``repro.cli`` commands.  The run prints every
end-to-end metric with its unit and quartiles (times scaled to the
reference host speed by ``host.probe_s``), checks every output
digest against ``golden.json``, counts failed operations against
attempted ones, and ends with one JSON line::

    {"correct": true, "attempted": 9360, "failed": 0, "metrics": {...}}

``--trace 1`` adds one traced pass and reports the per-layer metrics
instead; spans go to ``bench/results/trace-<workload>.json``.
``--spread A.json B.json ...`` compares result files against the bounds
in ``BENCHMARK.json``; ``--write-golden`` pins the digests of ``--seed``.
Any failed operation makes the exit code nonzero.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")
WORK = os.path.join(RESULTS, "work")
GOLDEN = os.path.join(BENCH, "golden.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

sys.path.insert(0, BENCH)
import host  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("fig9", "fig9-telemetry", "pm-mixed", "parallel-campaign",
             "cold-cli")

#: Fresh processes per in-process workload run: set-up is timed once in
#: each, and passes from all of them are pooled.
PROCESSES = 3

#: The CPUs the benchmark may use.
ALL_CPUS = frozenset(os.sched_getaffinity(0))

#: A workload run's hard limit: every process it starts is killed by
#: then, so that one run ends within three minutes.
RUN_LIMIT_S = 140.0

#: Hard limit of each ``python -X importtime`` probe of a traced run.
IMPORT_LIMIT_S = 5.0

CHILD = os.path.join(BENCH, "child.py")

#: Metric names: letters, digits, ``_``, ``.`` and ``-``.
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Layers whose call counts (``<name>.calls``) and, where timed, share
#: of the traced pass's wall time spent in their own code
#: (``<name>.self_pct``) the traced pass reports.
CALLED = (
    "blockloop.run_fast", "controller.run", "platform.step",
    "platform.step_block", "platform.load", "sampling.sample",
    "meter.accumulate", "drivers.set_pstate", "governors.decide",
    "models.estimate", "faults.inject", "adaptation.observe",
    "multicore.run", "multicore.step", "multicore.contention",
    "telemetry.emit", "telemetry.span", "telemetry.finalize",
    "exec.prepare_cell", "exec.execute_cell", "exec.pool",
    "campaign.cell_digest", "campaign.store_get", "campaign.store_put",
    "campaign.dispatch", "checkpoint.digest", "training.collect",
    "training.fit", "exec.trained_power_model",
)

#: Per-layer metrics that are not call counts: name -> unit.
LAYER_EXTRA = {
    "loop.fast_path_ratio": "ratio",
    "campaign.hit_ratio": "ratio",
    "campaign.quarantined": "count",
    "campaign.lost": "count",
    "exec.pool.slow_runs": "count",
    "exec.pool.restarts": "count",
    "exec.pool.rescheduled": "count",
    "host.cpu_s": "s",
    "host.idle_s": "s",
    "host.setup_s": "s",
    "host.warmup_s": "s",
    "trace.overhead": "x",
    "import.numpy_s": "s",
    "import.repro_s": "s",
}

#: The per-layer metrics the last JSON line carries; self times in
#: seconds, per-subpackage imports and report sections are in the log
#: and the trace file.  Shares stand in for self times there because a
#: layer a workload never reaches would read exactly 0 s on every run.
PER_LAYER = (
    tuple(f"{m}.calls" for m in CALLED)
    + tuple(f"{m}.self_pct" for m in CALLED if m not in layers.COUNT_ONLY)
    + tuple(LAYER_EXTRA)
)

#: Timing samples kept per run: the gated set-up and pass times at the
#: reference host speed, the wall times they came from and the probes.
TIMINGS = ("setup_s", "pass_s", "setup_wall_s", "pass_wall_s", "probe_s")

#: A pool run slower than this many median pool runs is a stall.
SLOW_RUN_FACTOR = 3.0

#: The ``_x.x s_`` timing line under each report section.
REPORT_TIMING_RE = re.compile(r"^_\d+\.\d s_$", re.MULTILINE)


# -- statistics ---------------------------------------------------------------


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def high_percentile(values):
    """(percentile, value): the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    return math.floor(100 * (n - 10) / n), ordered[n - 11]


def summary(values) -> dict:
    """Median, quartiles, high percentile and count of ``values``."""
    q1, q2, q3 = quartiles(values)
    out = {"median": q2, "q1": q1, "q3": q3, "n": len(values)}
    high = high_percentile(values)
    if high is not None:
        out[f"p{high[0]}"] = high[1]
    return out


# -- correctness --------------------------------------------------------------


def load_golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


def digest_failures(passes, expected: dict | None) -> tuple[int, dict]:
    """Failed operations across ``passes`` and the reference digests.

    Each pass lists ``digests`` as ``[key, sha256]`` pairs, each covering
    an equal share of the pass's ``attempted`` operations.  A pair that
    differs from ``expected[key]`` -- or, for a seed with no golden,
    from the first digest seen under that key -- fails its share.  A
    pass that raised (no digests) or reported its own failures keeps
    the larger of the two counts.
    """
    reference = dict(expected or {})
    failed = 0
    for record in passes:
        pairs = record.get("digests", [])
        share = record["attempted"] // max(1, len(pairs))
        wrong = 0
        for key, digest in pairs:
            if reference.setdefault(key, digest) != digest:
                wrong += share
        own = record["attempted"] if "error" in record else record["failed"]
        failed += max(own, wrong)
    return failed, reference


# -- processes ----------------------------------------------------------------


def child_env() -> dict:
    """Environment for every process the benchmark starts.

    ``TMPDIR`` keeps temporary files inside the checkout; a fixed hash
    seed gives every process the same dict and set layouts.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH])
    env["TMPDIR"] = WORK
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, log_path: str, deadline: float) -> dict:
    """Run ``argv`` to completion; start and end (``time.monotonic``),
    wall time, rusage and exit code.

    The process leads its own session so that reaching ``deadline``
    kills its whole tree; it is always reaped before this returns.
    """
    with open(log_path, "ab") as log:
        start = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=log,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
        killer = threading.Timer(
            max(0.0, deadline - start), kill_group, (proc.pid,)
        )
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
        except BaseException:
            kill_group(proc.pid)
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
            kill_group(proc.pid)  # whatever it left running in its session
    return {
        "start": start,
        "end": end,
        "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "code": os.waitstatus_to_exitcode(status),
    }


def kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def log_tail(path: str, lines: int = 25) -> str:
    with open(path, errors="replace") as handle:
        return "".join(handle.readlines()[-lines:])


# -- workloads ----------------------------------------------------------------


def run_in_process(name, seed, seconds, trace_path, processes,
                   deadline) -> dict:
    """Set-up and timed passes from ``processes`` fresh children, then,
    with ``trace_path``, one more child that sets up and runs a single
    traced pass, so that tracing moves no end-to-end metric."""
    children = []
    for index in range(processes + (trace_path is not None)):
        out = os.path.join(WORK, f"{name}-{index}.json")
        log = os.path.join(WORK, f"{name}-{index}.log")
        for path in (out, log):
            if os.path.exists(path):
                os.remove(path)
        probe = host.probe_s()
        argv = [sys.executable, CHILD,
                "--workload", name, "--seed", str(seed),
                "--share", repr(seconds / processes),
                "--workdir", WORK, "--out", out, "--probe", repr(probe),
                "--t0", repr(time.monotonic())]
        if index == processes:
            argv += ["--trace", trace_path]
        proc = spawn(argv, log, deadline)
        record = {"process": proc}
        if proc["code"] == 0:
            with open(out) as handle:
                record.update(json.load(handle))
        else:
            record["error"] = log_tail(log)
        children.append(record)
    return {"children": children[:processes],
            "tracer": children[processes:]}


def cli_pair(seed, deadline, traced_into=None) -> list[dict]:
    """One ``run`` and one ``report`` command in fresh interpreters.

    ``run`` is timed between the parent's probes right around it.
    ``report`` goes through ``child.py --cli``, which probes the host
    before each section, so it is timed in the stretches between
    probes like a pass in steps.  ``traced_into`` traces both.
    """
    run_json = os.path.join(WORK, "cli-run.json")
    report_md = os.path.join(WORK, "cli-report.md")
    commands = {
        "run": ["run", "ammp", "--governor", "pm", "--limit", "14.5",
                "--scale", "0.05", "--seed", str(seed),
                "--result-json", run_json],
        "report": ["report", "--seed", str(seed), "--output", report_md],
    }
    records = []
    for key, args in commands.items():
        output = run_json if key == "run" else report_md
        stamps = os.path.join(WORK, f"cli-{key}-probes.json")
        for path in (output, stamps):
            if os.path.exists(path):
                os.remove(path)
        if key == "run" and traced_into is None:
            argv = [sys.executable, "-m", "repro.cli", *args]
        else:
            argv = [sys.executable, CHILD, "--out", stamps]
            if traced_into is not None:
                argv += ["--trace", f"{traced_into}-{key}.json"]
            argv += ["--cli", *args]
        log = os.path.join(WORK, f"cli-{key}.log")
        before = host.probe_s()
        proc = spawn(argv, log, deadline)
        after = host.probe_s()
        record = {"key": key, "process": proc, "attempted": 1,
                  "failed": int(proc["code"] != 0)}
        records.append(record)
        if proc["code"] != 0:
            record["error"] = log_tail(log)
            continue
        probes = []
        if os.path.exists(stamps):
            with open(stamps) as handle:
                probes = json.load(handle)["probes"]
        walls, steps = host.segments(proc["start"], proc["end"], before,
                                     after, probes)
        probing = [end - start for start, end in probes]
        record.update(
            wall_s=sum(walls), ref_s=sum(steps), steps=steps,
            cpu_s=proc["cpu_s"] - sum(probing),
            probe_s=statistics.median([before, after, *probing]),
            digests=[[key, cli_digest(key, output)]],
        )
    return records


def cli_digest(key: str, path: str) -> str:
    """sha256 of a CLI output: the canonical run digest JSON, or the
    report text without its per-section timing lines."""
    with open(path) as handle:
        text = handle.read()
    if key == "run":
        text = json.dumps(json.loads(text), sort_keys=True)
    else:
        text = REPORT_TIMING_RE.sub("", text)
    return hashlib.sha256(text.encode()).hexdigest()


def run_cold_cli(seed, seconds, trace_path, min_pairs, deadline) -> dict:
    """An untimed warm-up pair, then alternating ``run``/``report``
    pairs until ``seconds`` are spent."""
    warmup = cli_pair(seed, deadline)
    pairs = []
    start = time.monotonic()
    while True:
        pairs.append(cli_pair(seed, deadline))
        spent = time.monotonic() - start
        # Stop when one more pair of the mean length would overrun.
        if (len(pairs) >= min_pairs
                and spent * (len(pairs) + 1) / len(pairs) > seconds):
            break
    out = {"warmup": warmup, "pairs": pairs}
    if trace_path is not None:
        stem = os.path.join(WORK, "cli-trace")
        out["traced"] = cli_pair(seed, deadline, traced_into=stem)
        out["trace_parts"] = [f"{stem}-{key}.json"
                              for key in ("run", "report")]
    return out


# -- metrics ------------------------------------------------------------------


def timings(setups, passes) -> dict:
    """Set-up and pass times at the reference host speed (``ref_s``,
    and each pass's ``steps``), as measured (``wall_s``), their CPU
    time and host probes."""
    return {
        "setup_s": [r["ref_s"] for r in setups],
        "pass_s": [r["ref_s"] for r in passes],
        "pass_steps": [r["steps"] for r in passes],
        "setup_wall_s": [r["wall_s"] for r in setups],
        "pass_wall_s": [r["wall_s"] for r in passes],
        "pass_cpu_s": [r["cpu_s"] for r in passes],
        "probe_s": [r["probe_s"] for r in passes],
    }


def collect(name: str, raw: dict) -> dict:
    """Samples, operation counts and passes of one workload run."""
    if name == "cold-cli":
        pairs = raw["pairs"]
        runs = [p[0] for p in pairs if "error" not in p[0]]
        reports = [p[1] for p in pairs if "error" not in p[1]]
        untraced = [r for pair in [raw["warmup"], *pairs] for r in pair]
        checked = untraced + raw.get("traced", [])
        return dict(
            timings(runs, reports),
            warmup_s=[sum(r.get("wall_s", 0.0) for r in raw["warmup"])],
            peak_rss_mb=max(r["process"]["maxrss_mb"] for r in untraced),
            checked=checked,
            extra={},
            processes=[r["process"] for r in checked],
            errors=[r["error"] for r in checked if "error" in r],
        )
    children = raw["children"]
    ok = [c for c in children if "passes" in c]
    passes = [p for c in ok for p in c["passes"]]
    timed = [p for p in passes if "error" not in p]
    setups = [{"wall_s": c["setup_s"], "ref_s": c["setup_ref_s"]}
              for c in ok]
    extra: dict = {}
    if timed and "ticks" in timed[0]:
        extra["sim_ticks_per_s"] = [p["ticks"] / p["wall_s"] for p in timed]
    for p in timed:
        for key, values in p.get("times", {}).items():
            extra.setdefault(key, []).extend(values)
    checked = [c["warmup"] for c in ok] + passes
    for child in raw["tracer"]:
        if "traced" in child:
            checked += [child["warmup"], child["traced"]]
    everyone = children + raw["tracer"]
    errors = [c["error"] for c in everyone if "error" in c]
    errors += [p["error"] for p in checked if "error" in p]
    counts: dict = {}
    for p in timed:
        for key, value in p.get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
    return dict(
        timings(setups, timed),
        warmup_s=[c["warmup"].get("wall_s", 0.0) for c in ok],
        peak_rss_mb=max(c["process"]["maxrss_mb"] for c in children),
        checked=checked,
        extra=extra,
        counts=counts,
        processes=[c["process"] for c in everyone],
        # A child that died took all its operations with it.
        lost_ops=sum("error" in c for c in everyone),
        errors=errors,
    )


def median_pass(step_lists) -> float:
    """A pass put together from per-step medians: for each step, the
    median of its times across passes, summed over the steps.

    A burst of host load slows one step of one pass; the step's median
    drops it, where the median of whole passes keeps it whenever most
    passes caught a burst somewhere.
    """
    return sum(statistics.median(times) for times in zip(*step_lists))


def end_to_end(samples: dict) -> dict:
    """The gated metrics: the median set-up and the median pass (from
    per-step medians) at the reference host speed, and peak RSS."""
    return {
        "setup_s": statistics.median(samples["setup_s"]),
        "pass_s": median_pass(samples["pass_steps"]),
        "peak_rss_mb": samples["peak_rss_mb"],
    }


def import_times(repeats: int = 3) -> dict:
    """Median ``python -X importtime`` seconds for numpy and repro.

    ``import.repro_s`` covers every top-level ``repro`` entry after
    numpy; ``import.repro.<sub>_s`` is each subpackage's cumulative
    time wherever it was first imported.
    """
    packages = sorted(
        entry for entry in os.listdir(os.path.join(SRC, "repro"))
        if os.path.isfile(os.path.join(SRC, "repro", entry, "__init__.py"))
    )
    script = "import numpy, repro.cli" + "".join(
        f", repro.{package}" for package in packages
    )
    runs: dict[str, list[float]] = {}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", script],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=IMPORT_LIMIT_S,
        )
        found = {"import.numpy_s": 0.0, "import.repro_s": 0.0}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cumulative = int(parts[1]) / 1e6
            field = parts[2].rstrip()
            module = field.strip()
            top = len(field) - len(field.lstrip()) <= 1
            if module == "numpy" and top:
                found["import.numpy_s"] = cumulative
            elif top and (module == "repro" or module.startswith("repro.")):
                found["import.repro_s"] += cumulative
            if module.count(".") == 1 and module.startswith("repro."):
                found[f"import.{module}_s"] = cumulative
        for key, value in found.items():
            runs.setdefault(key, []).append(value)
    return {key: statistics.median(values) for key, values in runs.items()}


def load_trace(name: str, raw: dict) -> dict:
    """The traced pass's layer table, host readings and spans."""
    if name != "cold-cli":
        with open(trace_file(name)) as handle:
            return json.load(handle)
    merged: dict = {"layers": {}, "host": {}, "absent": {},
                    "span_names": [], "spans": []}
    for part in raw["trace_parts"]:
        with open(part) as handle:
            trace = json.load(handle)
        offset = len(merged["spans"])
        names = merged["span_names"]
        for name_index, start, end, parent, cell in trace["spans"]:
            span_name = trace["span_names"][name_index]
            if span_name not in names:
                names.append(span_name)
            merged["spans"].append([
                names.index(span_name), start, end,
                None if parent is None else parent + offset, cell,
            ])
        for metric, row in trace["layers"].items():
            into = merged["layers"].setdefault(metric, {})
            for key, value in row.items():
                into[key] = into.get(key, 0) + value
        merged["absent"].update(trace["absent"])
        os.remove(part)
    return merged


def per_layer(name: str, samples: dict, trace: dict, imports: dict,
              raw: dict) -> dict:
    """Every per-layer metric of one traced workload run, by name."""
    table = trace["layers"]
    metrics: dict = {}
    for metric, row in sorted(table.items()):
        if metric.startswith("experiments."):
            metrics[metric + "_s"] = row["total_s"]
            continue
        metrics[f"{metric}.calls"] = row["calls"]
        if "self_s" in row:
            metrics[f"{metric}.self_s"] = row["self_s"]
    if name == "cold-cli":
        traced = raw["traced"]  # the run and the report command
    else:
        traced = [raw["tracer"][0]["traced"]]
    traced_s = sum(record["wall_s"] for record in traced)
    for metric in CALLED:
        metrics.setdefault(f"{metric}.calls", 0)
        if metric not in layers.COUNT_ONLY:
            own = table.get(metric, {}).get("self_s", 0.0)
            metrics[f"{metric}.self_pct"] = 100.0 * own / traced_s
    metrics["exec.execute_cell.total_s"] = table.get(
        "exec.execute_cell", {}).get("total_s", 0.0)
    runs = table.get("controller.run", {}).get("calls", 0)
    fast = table.get("blockloop.run_fast", {}).get("calls", 0)
    metrics["loop.fast_path_ratio"] = fast / runs if runs else 0.0
    for metric in ("exec.pool", "campaign.dispatch"):
        wall, idle = trace["host"].get(metric, (0.0, 0.0))
        metrics[f"{metric}.wall_s"] = wall
        metrics[f"{metric}.idle_s"] = idle
    counts = samples.get("counts", {})
    cells = counts.get("campaign_cells", 0)
    metrics["campaign.hit_ratio"] = (
        counts.get("cached", 0) / cells if cells else 0.0
    )
    metrics["campaign.quarantined"] = counts.get("quarantined", 0)
    metrics["campaign.lost"] = counts.get("lost", 0)
    pool = samples["extra"].get("pool_s", [])
    limit = SLOW_RUN_FACTOR * statistics.median(pool) if pool else 0.0
    metrics["exec.pool.slow_runs"] = sum(t > limit for t in pool)
    metrics["exec.pool.restarts"] = counts.get("restarts", 0)
    metrics["exec.pool.rescheduled"] = counts.get("rescheduled", 0)
    cpu = statistics.median(samples["pass_cpu_s"])
    wall = statistics.median(samples["pass_wall_s"])
    metrics["host.cpu_s"] = cpu
    metrics["host.idle_s"] = host.nproc() * wall - cpu
    metrics["host.setup_s"] = statistics.median(samples["setup_wall_s"])
    metrics["host.warmup_s"] = statistics.median(samples["warmup_s"])
    # The traced pass (for cold-cli its report) over the median pass.
    metrics["trace.overhead"] = (
        traced[-1]["ref_s"] / statistics.median(samples["pass_s"])
    )
    metrics.update(imports)
    return metrics


def layer_unit(metric: str) -> str:
    if metric in LAYER_EXTRA:
        return LAYER_EXTRA[metric]
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith(".self_pct"):
        return "%"
    return "s"


def trace_file(name: str) -> str:
    return os.path.join(RESULTS, f"trace-{name}.json")


# -- host record --------------------------------------------------------------


def git_state() -> dict:
    """HEAD and whether tracked files differ from it ("unknown" when
    the checkout is not itself a git repository)."""
    # git must not find a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
            check=True,
        ).stdout.strip() != ""
    except (OSError, subprocess.SubprocessError):
        return {"sha": "unknown", "dirty": None}
    return {"sha": sha, "dirty": dirty}


def version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "missing"


def host_record() -> dict:
    return {
        "git": git_state(),
        "nproc": host.nproc(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
    }


# -- one workload -------------------------------------------------------------


def run_workload(name, seed, seconds, trace, golden, writing) -> dict:
    """Run, check and summarize one workload."""
    load = os.getloadavg()[0]
    cpus = host.nproc()
    print(f"== {name}  seed {seed}  load {load:.2f} on {cpus} CPUs",
          flush=True)
    if load > cpus:
        print(f"   warning: 1-minute load {load:.2f} exceeds {cpus} CPUs",
              flush=True)
    # Single-process workloads run pinned to one CPU, where the probes
    # that scale their times run too; the pools get every CPU.
    os.sched_setaffinity(
        0, ALL_CPUS if name == "parallel-campaign" else {max(ALL_CPUS)}
    )
    trace_path = trace_file(name) if trace else None
    processes = 1 if writing else PROCESSES
    started = time.perf_counter()
    deadline = time.monotonic() + RUN_LIMIT_S
    if name == "cold-cli":
        raw = run_cold_cli(seed, seconds, trace_path, 1 if writing else 4,
                           deadline)
    else:
        raw = run_in_process(name, seed, seconds, trace_path, processes,
                             deadline)
    samples = collect(name, raw)
    expected = None if writing else golden.get(name, {}).get(str(seed))
    failed, reference = digest_failures(samples["checked"], expected)
    attempted = sum(r["attempted"] for r in samples["checked"])
    failed += samples.get("lost_ops", 0)
    attempted += samples.get("lost_ops", 0)
    for error in samples["errors"]:
        print("   error:\n" + error, file=sys.stderr)
    result = {
        "seed": seed,
        "load_1min": load,
        "load_warning": load > cpus,
        "wall_s": time.perf_counter() - started,
        "processes": samples["processes"],
        "attempted": attempted,
        "failed": failed,
        "golden": "pinned" if expected else "self-consistent",
        "digests": reference,
        "samples": {k: samples[k] for k in (*TIMINGS, "pass_steps")},
        "extra": {k: summary(v) for k, v in samples["extra"].items()},
    }
    if samples["pass_s"] and samples["setup_s"]:
        result["end_to_end"] = end_to_end(samples)
    report(result, samples)
    return result, raw, samples


def add_per_layer(name: str, result: dict, raw: dict, samples: dict):
    """Read the traced pass's spans and add the per-layer metrics to
    ``result``.

    This runs once every workload of the invocation has run: the spans
    make this process large, and a process started from it afterwards
    would report that size as its own peak RSS.
    """
    if samples["errors"]:
        return
    print(f"== {name}  per layer (traced pass)")
    trace_data = load_trace(name, raw)
    layer = per_layer(name, samples, trace_data, import_times(), raw)
    trace_data["per_layer"] = layer
    with open(trace_file(name), "w") as handle:
        json.dump(trace_data, handle)
    result["per_layer"] = layer
    result["absent"] = trace_data["absent"]
    for metric, value in layer.items():
        print(f"   {metric:40} {value:14.6g} {layer_unit(metric)}")
    for metric, targets in result["absent"].items():
        print(f"   {metric:40} absent ({', '.join(targets)})")


def report(result: dict, samples: dict) -> None:
    """Human-readable lines for one workload."""
    if "end_to_end" in result:
        for metric, value in result["end_to_end"].items():
            print(f"   {metric:24} {value:12.4f} {END_TO_END[metric][0]}")
        print("   samples (pass_s: whole passes):")
        for metric in TIMINGS:
            print(format_summary(metric, "s", summary(samples[metric])))
        for metric, stats in result["extra"].items():
            unit = "ticks/s" if metric == "sim_ticks_per_s" else "s"
            print(format_summary(metric, unit, stats))
    print(f"   ops: {result['attempted']} attempted, {result['failed']} "
          f"failed; digests {result['golden']}", flush=True)


def format_summary(metric: str, unit: str, stats: dict) -> str:
    high = [k for k in stats if k.startswith("p") and k[1:].isdigit()]
    tail = f"  {high[0]} {stats[high[0]]:.4g}" if high else ""
    return (f"   {metric:24} {stats['median']:12.4f} {unit:8} "
            f"q1 {stats['q1']:.4g}  q3 {stats['q3']:.4g}{tail}  "
            f"n={stats['n']}")


# -- spread -------------------------------------------------------------------


def load_spec() -> dict:
    with open(SPEC) as handle:
        return json.load(handle)


def spread_report(paths) -> int:
    """Per (metric, workload): the median, the quartile spread across
    the files (from four files on) and the worst change from the first
    file, each against the metric's bound.  Returns 1 if any exceeds
    its bound."""
    spec = load_spec()
    files = []
    for path in paths:
        with open(path) as handle:
            files.append(json.load(handle)["workloads"])
    exceeded = False
    print(f"{'workload':18} {'metric':14} {'median':>11} {'spread':>8} "
          f"{'change':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for workload in WORKLOADS:
            values = [f[workload]["end_to_end"][metric["name"]]
                      for f in files
                      if "end_to_end" in f.get(workload, {})]
            if len(values) < 2:
                continue
            first = values[0]
            change = max(sign * (v - first) / first for v in values[1:])
            # Quartiles of fewer values extrapolate past the data.
            width = spread(values) if len(values) >= 4 else None
            bad = change > metric["bound"] or (width or 0) > metric["bound"]
            exceeded |= bad
            shown = "-" if width is None else f"{width:.2%}"
            print(f"{workload:18} {metric['name']:14} "
                  f"{statistics.median(values):11.4f} {shown:>8} "
                  f"{change:+8.2%} {metric['bound']:6.0%}"
                  f"{'  EXCEEDS' if bad else ''}")
    return 1 if exceeded else 0


# -- main ---------------------------------------------------------------------


def final_line(results: dict, trace: bool) -> dict:
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and all(
        ("per_layer" if trace else "end_to_end") in r
        for r in results.values()
    )
    def metrics_of(result):
        if trace:
            return {m: {"value": v, "unit": layer_unit(m)}
                    for m, v in result.get("per_layer", {}).items()
                    if m in PER_LAYER}
        return {m: {"value": v, "unit": END_TO_END[m][0]}
                for m, v in result.get("end_to_end", {}).items()}
    if len(results) == 1:
        metrics = metrics_of(next(iter(results.values())))
    else:
        metrics = {name: metrics_of(r) for name, r in results.items()}
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the simulator end to end and per layer."
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: "
                        "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add a traced pass and report "
                        "per-layer metrics")
    parser.add_argument("--out", help="result file (default: "
                        "bench/results/run-<workload>-seed<N>-<time>.json)")
    parser.add_argument("--write-golden", action="store_true",
                        help="pin this seed's digests in golden.json")
    parser.add_argument("--spread", nargs="+", metavar="RESULT.json",
                        help="compare result files against the bounds")
    args = parser.parse_args(argv)
    if args.spread:
        return spread_report(args.spread)
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else (
        spec["run_seconds"])
    if args.write_golden:
        seconds = 0.0
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    # Byte-compile up front so no timed process pays for writing .pyc
    # files the first time a checkout runs.
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, BENCH],
                   cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                   timeout=15, check=True)
    golden = load_golden()
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs = {
        name: run_workload(name, args.seed, seconds, bool(args.trace),
                           golden, args.write_golden)
        for name in names
    }
    if args.trace:
        for name, run in runs.items():
            add_per_layer(name, *run)
    results = {name: run[0] for name, run in runs.items()}
    shutil.rmtree(WORK, ignore_errors=True)
    if args.write_golden:
        for name, result in results.items():
            if result["failed"]:
                print(f"error: {name} failed; golden not written",
                      file=sys.stderr)
                return 1
            golden.setdefault(name, {})[str(args.seed)] = result["digests"]
        with open(GOLDEN, "w") as handle:
            json.dump(golden, handle, indent=1, sort_keys=True)
            handle.write("\n")
    stamp = datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
    tag = args.workload or "all"
    out = args.out or os.path.join(
        RESULTS, f"run-{tag}-seed{args.seed}"
        f"{'-trace' if args.trace else ''}-{stamp}.json"
    )
    with open(out, "w") as handle:
        json.dump({"host": host_record(), "seconds": seconds,
                   "workloads": results}, handle, indent=1)
    print(f"result file: {os.path.relpath(out, ROOT)}")
    line = final_line(results, bool(args.trace))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
