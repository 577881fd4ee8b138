"""Shared model/measurement caches for the execution engine.

Training the MS-Loops power model and measuring the FMA-256KB
worst-case table are the two expensive derived artifacts every sweep
needs.  They live here as explicit, exportable per-process caches so
the worker pool can make every worker *inherit* them instead of
re-deriving them per cell:

* with a forked pool the parent primes the caches once and the workers
  inherit the filled dicts for free;
* with a spawned pool the parent ships :func:`export_caches`'s payload
  to each worker's initializer, which calls :func:`install_caches`.

Either way each (seed, scale) combination is trained/measured exactly
once per campaign rather than once per cell.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, Iterable, Mapping

from repro.core.models.power import LinearPowerModel
from repro.platform.machine import MachineConfig
from repro.workloads.base import Workload

#: MS-Loops training points per experiment seed (default machine).
_POINTS: Dict[int, tuple] = {}

#: Trained power model per experiment seed.
_MODELS: Dict[int, LinearPowerModel] = {}

#: Measured worst-case power table per (scale, seed).
_WORST_CASE: Dict[tuple[float, int], Mapping[float, float]] = {}

#: Resolved trace/corpus spec workloads.  File-backed specs key on the
#: file's identity (mtime + size) too, so editing a trace CSV between
#: runs invalidates the cached inversion.
_TRACE_WORKLOADS: Dict[tuple, Workload] = {}

#: Content-hash fallback for file-backed specs: ``(spec, sha256)`` ->
#: workload.  A trace file whose mtime changed but whose bytes did not
#: (``touch``, a re-download, a checkout) aliases back to the already
#: inverted workload instead of invalidating it.
_TRACE_CONTENT: Dict[tuple, Workload] = {}


def file_sha256(path: str | os.PathLike) -> str:
    """SHA-256 of a file's bytes (streamed; raises ``OSError``)."""
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


def _spec_key(spec: str) -> tuple:
    kind, _, rest = spec.partition(":")
    if kind == "trace":
        try:
            stat = os.stat(rest)
        except OSError:
            # Let resolution raise the pointed WorkloadError.
            return (spec,)
        return (spec, stat.st_mtime_ns, stat.st_size)
    return (spec,)


def spec_workload(spec: str) -> Workload:
    """Resolve a ``trace:``/``corpus:`` spec, cached per process.

    Loading a trace CSV and inverting it into phases is pure but not
    free; sweeps reference the same spec in many cells, so the resolved
    :class:`Workload` is cached exactly like trained power models --
    per process, inherited by forked workers, shipped to spawned ones
    via :func:`export_caches`.

    The fast key is the file's stat identity (mtime + size).  On a
    stat-key miss the file's content hash is consulted before falling
    back to a full re-inversion, so a touched-but-identical trace file
    costs one hash pass, not a reload.
    """
    key = _spec_key(spec)
    workload = _TRACE_WORKLOADS.get(key)
    if workload is not None:
        return workload
    content_key = None
    if len(key) == 3:  # a trace file that stat'ed successfully
        path = spec.partition(":")[2]
        try:
            content_key = (spec, file_sha256(path))
        except OSError:
            content_key = None
        if content_key is not None:
            workload = _TRACE_CONTENT.get(content_key)
            if workload is not None:
                _TRACE_WORKLOADS[key] = workload
                return workload
    from repro.workloads.registry import resolve_workload_spec

    workload = _TRACE_WORKLOADS[key] = resolve_workload_spec(spec)
    if content_key is not None:
        _TRACE_CONTENT[content_key] = workload
    return workload


def training_points(seed: int = 0) -> tuple:
    """The MS-Loops training set on the default machine (cached per
    process): Table II, ``train`` and every trained model read it."""
    points = _POINTS.get(seed)
    if points is None:
        from repro.core.models.training import collect_training_data

        points = _POINTS[seed] = collect_training_data(
            config=MachineConfig(seed=seed)
        )
    return points


def trained_power_model(seed: int = 0) -> LinearPowerModel:
    """The power model fit to :func:`training_points` (cached per process).

    Experiments use the *trained* model by default -- the paper trains
    on the microbenchmarks, then manages SPEC with the result.  The
    published Table II coefficients remain available via
    :meth:`LinearPowerModel.paper_model` for comparisons.
    """
    model = _MODELS.get(seed)
    if model is None:
        from repro.core.models.training import fit_power_model

        model = _MODELS[seed] = fit_power_model(training_points(seed))
    return model


def worst_case_power_table(
    scale: float = 3.0, seed: int = 0
) -> Mapping[float, float]:
    """Measured FMA-256KB power per p-state (regenerates Table III).

    This is the worst-case characterization static clocking provisions
    against; it is *measured* (run on the simulated rig), not computed
    from model constants.  It is cached under ``(scale, seed)`` alone,
    so it is measured on a bare session: the current session's faults,
    adaptation, telemetry and result store never reach it.
    """
    key = (scale, seed)
    table = _WORST_CASE.get(key)
    if table is None:
        from repro.exec.plan import ExperimentConfig, GovernorSpec, RunCell
        from repro.exec.session import ExecSession

        config = ExperimentConfig(scale=scale, seed=seed)
        results = ExecSession().run_cells(
            [
                RunCell(
                    workload="FMA-256KB",
                    governor=GovernorSpec.fixed(pstate.frequency_mhz),
                    initial_frequency_mhz=pstate.frequency_mhz,
                )
                for pstate in config.table
            ],
            config,
        )
        table = _WORST_CASE[key] = {
            pstate.frequency_mhz: result.mean_power_w
            for pstate, result in zip(config.table, results)
        }
    return table


#: Projection tables (Eq. 2 power / Eq. 3 throughput), keyed by VALUE
#: of (model coefficients, p-state table) rather than object identity:
#: every cell of a campaign builds its governor from an equal-but-
#: distinct model object, and value keys let them all share one table.
_PM_PROJECTIONS: Dict[tuple, object] = {}
_PS_PROJECTIONS: Dict[tuple, object] = {}


def _pm_key(model, table) -> tuple:
    return (
        tuple(
            (f, model.alpha(f), model.beta(f))
            for f in model.frequencies_mhz
        ),
        tuple((p.frequency_mhz, p.voltage) for p in table),
    )


def _ps_key(model, table) -> tuple:
    return (
        (model.memory_exponent, model.dcu_threshold),
        tuple((p.frequency_mhz, p.voltage) for p in table),
    )


def pm_projection_table(model, table):
    """Shared Eq. 2 :class:`PowerProjectionTable` for (model, table)."""
    key = _pm_key(model, table)
    tbl = _PM_PROJECTIONS.get(key)
    if tbl is None:
        from repro.core.models.projection import PowerProjectionTable

        tbl = _PM_PROJECTIONS[key] = PowerProjectionTable(model, table)
    return tbl


def ps_projection_table(model, table):
    """Shared Eq. 3 :class:`ThroughputProjectionTable` for (model, table)."""
    key = _ps_key(model, table)
    tbl = _PS_PROJECTIONS.get(key)
    if tbl is None:
        from repro.core.models.projection import ThroughputProjectionTable

        tbl = _PS_PROJECTIONS[key] = ThroughputProjectionTable(model, table)
    return tbl


def prime_for_plan(plan, indices: Iterable[int]) -> None:
    """Warm every cache the cells will ask for, ahead of forking.

    Covers ``plan.cells[i]`` for each ``i`` in ``indices``.  Called by
    the worker pool in the parent process so forked workers inherit a
    warm cache (and the spawn payload is complete).  A cell that cannot
    be primed -- the classic poison cell, whose workload spec does not
    resolve -- is skipped: it must fail *in its worker*, where the
    failure is classified and quarantined, not abort priming for the
    healthy rest of the plan.
    """
    from repro.workloads.registry import is_workload_spec

    for index in indices:
        cell = plan.cells[index]
        try:
            if (
                isinstance(cell.governor.power_model, str)
                and cell.governor.power_model == "trained"
            ):
                trained_power_model(seed=plan.config.seed)
            if is_workload_spec(cell.workload):
                spec_workload(cell.workload)
        except Exception:  # noqa: BLE001 - the worker will report it
            continue


def export_caches() -> dict:
    """A picklable snapshot of every cache (for spawn-pool workers)."""
    from repro.platform.blockstep import export_rate_templates

    return {
        "models": dict(_MODELS),
        "worst_case": dict(_WORST_CASE),
        "trace_workloads": dict(_TRACE_WORKLOADS),
        "trace_content": dict(_TRACE_CONTENT),
        "pm_projections": dict(_PM_PROJECTIONS),
        "ps_projections": dict(_PS_PROJECTIONS),
        "rate_templates": export_rate_templates(),
    }


def install_caches(payload: Mapping) -> None:
    """Merge a parent-process snapshot into this process's caches."""
    from repro.platform.blockstep import install_rate_templates

    _MODELS.update(payload.get("models", {}))
    _WORST_CASE.update(payload.get("worst_case", {}))
    _TRACE_WORKLOADS.update(payload.get("trace_workloads", {}))
    _TRACE_CONTENT.update(payload.get("trace_content", {}))
    _PM_PROJECTIONS.update(payload.get("pm_projections", {}))
    _PS_PROJECTIONS.update(payload.get("ps_projections", {}))
    install_rate_templates(payload.get("rate_templates", {}))


def clear_caches() -> None:
    """Drop every cached artifact (tests only)."""
    from repro.platform.blockstep import clear_rate_templates

    _POINTS.clear()
    _MODELS.clear()
    _WORST_CASE.clear()
    _TRACE_WORKLOADS.clear()
    _TRACE_CONTENT.clear()
    _PM_PROJECTIONS.clear()
    _PS_PROJECTIONS.clear()
    clear_rate_templates()
