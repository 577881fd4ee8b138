"""Declarative run plans: experiment cells as data, not ambient state.

A run is workload x governor x options, and it must fan out over a
process pool and be keyed in a result store -- so every part of it is
data with a canonical JSON form.  This module describes runs with
three plain-data types:

* :class:`GovernorSpec` -- a picklable, JSON-able description of a
  governor (kind + parameters + model source) that builds a fresh
  governor instance on demand;
* :class:`RunCell` -- one experiment cell: a workload name or
  ``trace:``/``corpus:`` spec x governor x seed offset, plus its
  initial frequency, fault plan, adaptation and resilience configs,
  all **as data**;
* :class:`RunPlan` -- a configured batch of cells.

Every cell therefore has a canonical spec and a store digest.

A plan is the unit the execution engine schedules: serial execution
walks the cells in order, the worker pool fans them out over
workers, and both produce bit-identical
:func:`~repro.checkpoint.run_result_digest` values per cell because
every source of randomness is derived from cell data alone.

:class:`ExperimentConfig` lives here too so the experiments layer
depends on the execution engine rather than the other way around.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from repro.acpi.pstates import PStateTable
from repro.adaptation.manager import AdaptationConfig
from repro.core.governors.base import Governor
from repro.core.models.performance import PerformanceModel
from repro.core.models.power import LinearPowerModel
from repro.core.resilience import ResilienceConfig
from repro.errors import ExperimentError, PlanError
from repro.faults.plan import FaultPlan
from repro.platform.machine import MachineConfig
from repro.workloads.base import Workload

#: Plan serialization format version.
PLAN_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Common experiment knobs.

    ``scale`` multiplies workload instruction budgets (1.0 = the full
    synthetic budgets; smaller = faster runs with identical rates and
    phase structure).  ``runs`` is the paper's repetition count (3 with
    median selection; 1 for quick sweeps).
    """

    scale: float = 0.5
    runs: int = 1
    seed: int = 0
    keep_trace: bool = False
    max_seconds: float = 600.0
    machine: MachineConfig = field(default_factory=MachineConfig)

    def machine_config(self, seed_offset: int = 0) -> MachineConfig:
        """Machine config with the experiment seed applied."""
        return replace(self.machine, seed=self.seed + seed_offset)

    @property
    def table(self) -> PStateTable:
        """The platform p-state table."""
        return self.machine.table


#: Governor kinds a :class:`GovernorSpec` can describe declaratively.
GOVERNOR_KINDS = (
    "pm", "adaptive-pm", "ps", "dbs", "fixed", "edp", "energy-optimal",
)

#: Axis names :meth:`RunPlan.sweep_axes` accepts.
VALID_SWEEP_AXES = ("workloads", "governors", "seeds", "threads")

#: Power-model sources resolvable from data alone.
_MODEL_SOURCES = ("trained", "paper")


@dataclass(frozen=True)
class GovernorSpec:
    """A governor described by data, buildable in any process.

    ``power_model`` is either the string ``"trained"`` (fit on MS-Loops
    for the cell's experiment seed, via the per-process model cache),
    ``"paper"`` (the published Table II coefficients) or an explicit
    :class:`~repro.core.models.power.LinearPowerModel` instance.
    """

    kind: str
    power_limit_w: float | None = None
    floor: float | None = None
    frequency_mhz: float | None = None
    power_model: str | LinearPowerModel = "trained"
    performance_model: PerformanceModel | None = None
    raise_window: int | None = None
    guardband_w: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in GOVERNOR_KINDS:
            raise ExperimentError(
                f"unknown governor kind {self.kind!r}; "
                f"expected one of {GOVERNOR_KINDS}"
            )
        if isinstance(self.power_model, str) and (
            self.power_model not in _MODEL_SOURCES
        ):
            raise ExperimentError(
                f"power_model must be a LinearPowerModel or one of "
                f"{_MODEL_SOURCES}, got {self.power_model!r}"
            )

    # -- convenience constructors ------------------------------------------

    @classmethod
    def pm(
        cls,
        power_limit_w: float,
        power_model: str | LinearPowerModel = "trained",
        raise_window: int | None = None,
        guardband_w: float | None = None,
    ) -> "GovernorSpec":
        """PerformanceMaximizer under ``power_limit_w``."""
        return cls(
            kind="pm",
            power_limit_w=power_limit_w,
            power_model=power_model,
            raise_window=raise_window,
            guardband_w=guardband_w,
        )

    @classmethod
    def adaptive_pm(
        cls,
        power_limit_w: float,
        power_model: str | LinearPowerModel = "trained",
    ) -> "GovernorSpec":
        """AdaptivePerformanceMaximizer (measured-power feedback)."""
        return cls(
            kind="adaptive-pm",
            power_limit_w=power_limit_w,
            power_model=power_model,
        )

    @classmethod
    def ps(
        cls,
        floor: float,
        performance_model: PerformanceModel | None = None,
    ) -> "GovernorSpec":
        """PowerSave above ``floor`` (default Eq. 3 primary exponent)."""
        return cls(kind="ps", floor=floor, performance_model=performance_model)

    @classmethod
    def fixed(cls, frequency_mhz: float) -> "GovernorSpec":
        """FixedFrequency pinned at ``frequency_mhz``."""
        return cls(kind="fixed", frequency_mhz=frequency_mhz)

    @classmethod
    def dbs(cls) -> "GovernorSpec":
        """Demand-Based Switching (the paper's §IV-B comparison)."""
        return cls(kind="dbs")

    @classmethod
    def edp(
        cls,
        power_model: str | LinearPowerModel = "trained",
        performance_model: PerformanceModel | None = None,
    ) -> "GovernorSpec":
        """EnergyDelayOptimizer."""
        return cls(
            kind="edp",
            power_model=power_model,
            performance_model=performance_model,
        )

    @classmethod
    def energy_optimal(
        cls,
        power_model: str | LinearPowerModel = "trained",
        performance_model: PerformanceModel | None = None,
    ) -> "GovernorSpec":
        """EnergyOptimalSearch (energy/instruction argmin over the table)."""
        return cls(
            kind="energy-optimal",
            power_model=power_model,
            performance_model=performance_model,
        )

    # -- building ----------------------------------------------------------

    def resolve_power_model(self, seed: int) -> LinearPowerModel:
        """The spec's power model, training (cached) when requested."""
        if isinstance(self.power_model, LinearPowerModel):
            return self.power_model
        if self.power_model == "paper":
            return LinearPowerModel.paper_model()
        from repro.exec.cache import trained_power_model

        return trained_power_model(seed=seed)

    def build(self, table: PStateTable, seed: int = 0) -> Governor:
        """Instantiate a fresh governor for one run.

        ``seed`` is the *experiment* seed (it selects the trained power
        model, matching the historical ``trained_power_model(seed=
        config.seed)`` calls), not the per-cell machine seed.
        """
        if self.kind == "fixed":
            if self.frequency_mhz is None:
                raise ExperimentError("fixed specs need frequency_mhz")
            from repro.core.governors.unconstrained import FixedFrequency

            return FixedFrequency(table, self.frequency_mhz)
        if self.kind == "dbs":
            from repro.core.governors.demand_based import DemandBasedSwitching

            return DemandBasedSwitching(table)
        if self.kind == "ps":
            if self.floor is None:
                raise ExperimentError("ps specs need a floor")
            from repro.core.governors.powersave import PowerSave

            model = self.performance_model or PerformanceModel.paper_primary()
            return PowerSave(table, model, self.floor)
        if self.kind == "edp":
            from repro.core.governors.energy_efficiency import (
                EnergyDelayOptimizer,
            )

            perf = self.performance_model or PerformanceModel.paper_primary()
            return EnergyDelayOptimizer(
                table, self.resolve_power_model(seed), perf
            )
        if self.kind == "energy-optimal":
            from repro.core.governors.energy_optimal import EnergyOptimalSearch

            perf = self.performance_model or PerformanceModel.paper_primary()
            return EnergyOptimalSearch(
                table, self.resolve_power_model(seed), perf
            )
        if self.power_limit_w is None:
            raise ExperimentError(f"{self.kind} specs need power_limit_w")
        power_model = self.resolve_power_model(seed)
        if self.kind == "adaptive-pm":
            from repro.core.governors.adaptive_pm import (
                AdaptivePerformanceMaximizer,
            )

            return AdaptivePerformanceMaximizer(
                table, power_model, self.power_limit_w
            )
        from repro.core.governors.performance_maximizer import (
            PerformanceMaximizer,
        )

        kwargs = {}
        if self.raise_window is not None:
            kwargs["raise_window"] = self.raise_window
        if self.guardband_w is not None:
            kwargs["guardband_w"] = self.guardband_w
        return PerformanceMaximizer(
            table, power_model, self.power_limit_w, **kwargs
        )

    @property
    def label(self) -> str:
        """A short human-readable tag (used in summaries and telemetry)."""
        if self.kind == "pm" or self.kind == "adaptive-pm":
            return f"{self.kind}@{self.power_limit_w}W"
        if self.kind == "ps":
            return f"ps@{self.floor}"
        if self.kind == "fixed":
            return f"fixed@{self.frequency_mhz:.0f}MHz"
        return self.kind

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form."""
        out: dict = {"kind": self.kind}
        for key in ("power_limit_w", "floor", "frequency_mhz",
                    "raise_window", "guardband_w"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if isinstance(self.power_model, LinearPowerModel):
            from repro.core.models.persistence import power_model_to_json

            out["power_model"] = {
                "inline": json.loads(power_model_to_json(self.power_model))
            }
        elif self.power_model != "trained":
            out["power_model"] = self.power_model
        if self.performance_model is not None:
            out["performance_model"] = dataclasses.asdict(
                self.performance_model
            )
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "GovernorSpec":
        """Inverse of :meth:`to_dict`."""
        if not isinstance(data, Mapping):
            raise ExperimentError("governor spec must be a mapping")
        power_model: str | LinearPowerModel = data.get(
            "power_model", "trained"
        )
        if isinstance(power_model, Mapping):
            from repro.core.models.persistence import power_model_from_json

            power_model = power_model_from_json(
                json.dumps(power_model["inline"])
            )
        performance_model = data.get("performance_model")
        if performance_model is not None:
            performance_model = PerformanceModel(**performance_model)
        return cls(
            kind=data["kind"],
            power_limit_w=data.get("power_limit_w"),
            floor=data.get("floor"),
            frequency_mhz=data.get("frequency_mhz"),
            power_model=power_model,
            performance_model=performance_model,
            raise_window=data.get("raise_window"),
            guardband_w=data.get("guardband_w"),
        )


@dataclass(frozen=True)
class RunCell:
    """One experiment cell: everything one run needs, as data.

    ``group``/``rep`` tag cells that belong to one logical measurement
    (the paper's median-of-N protocol expands one measurement into
    ``runs`` cells with seed offsets 100*i).  ``workload`` is a registry
    name or a ``trace:PATH`` / ``corpus:NAME[@SEED]`` spec, never a
    :class:`~repro.workloads.base.Workload` object, so every cell
    serializes and has a store digest.  ``fault_plan`` /
    ``adaptation`` / ``resilience`` are the run's only carriers of those
    options.

    ``threads`` > 1 runs the cell on a
    :class:`~repro.multicore.machine.MulticoreMachine` with ``threads``
    cores: the workload split ``threads`` ways behind the shared-bus
    contention model, with every option a single-core cell takes.
    """

    workload: str
    governor: GovernorSpec
    seed_offset: int = 0
    initial_frequency_mhz: float | None = None
    group: str | None = None
    rep: int = 0
    threads: int = 1
    fault_plan: FaultPlan | None = None
    adaptation: AdaptationConfig | None = None
    resilience: ResilienceConfig | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.workload, str):
            raise PlanError(
                "cell workload must be a registry name or a trace:PATH / "
                "corpus:NAME[@SEED] spec, got a "
                f"{type(self.workload).__name__}; pass the workload's name"
            )
        if not isinstance(self.threads, int) or self.threads < 1:
            raise PlanError(
                f"cell threads must be a positive int, got {self.threads!r}"
            )

    @classmethod
    def fixed(
        cls, workload: str, frequency_mhz: float, **kwargs
    ) -> "RunCell":
        """A cell pinned at one frequency (the paper's reference runs).

        The run *starts* at the pinned frequency too -- otherwise the
        first tick would execute at P0 and bias short characterization
        runs.
        """
        return cls(
            workload=workload,
            governor=GovernorSpec.fixed(frequency_mhz),
            initial_frequency_mhz=frequency_mhz,
            **kwargs,
        )

    @property
    def label(self) -> str:
        """``workload/governor[/tN][/repN]`` tag for logs and telemetry."""
        tag = f"{self.workload}/{self.governor.label}"
        if self.threads != 1:
            tag = f"{tag}/t{self.threads}"
        return f"{tag}/rep{self.rep}" if self.rep else tag

    def resolve_workload(self) -> Workload:
        """The cell's workload object.

        A registry name resolves through the registry; a ``trace:PATH``
        / ``corpus:NAME[@SEED]`` spec goes through the per-process cache
        (:func:`repro.exec.cache.spec_workload`) so a sweep loads and
        inverts each trace once.
        """
        from repro.workloads.registry import get_workload, is_workload_spec

        if is_workload_spec(self.workload):
            from repro.exec.cache import spec_workload

            return spec_workload(self.workload)
        return get_workload(self.workload)

    def to_dict(self) -> dict:
        """JSON-safe form."""
        out: dict = {
            "workload": self.workload,
            "governor": self.governor.to_dict(),
        }
        if self.seed_offset:
            out["seed_offset"] = self.seed_offset
        if self.initial_frequency_mhz is not None:
            out["initial_frequency_mhz"] = self.initial_frequency_mhz
        if self.group is not None:
            out["group"] = self.group
        if self.rep:
            out["rep"] = self.rep
        if self.threads != 1:
            out["threads"] = self.threads
        if self.fault_plan is not None:
            out["fault_plan"] = self.fault_plan.to_dict()
        if self.adaptation is not None:
            out["adaptation"] = dataclasses.asdict(self.adaptation)
        if self.resilience is not None:
            out["resilience"] = dataclasses.asdict(self.resilience)
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunCell":
        """Inverse of :meth:`to_dict`."""
        return cls(
            workload=data["workload"],
            governor=GovernorSpec.from_dict(data["governor"]),
            seed_offset=int(data.get("seed_offset", 0)),
            initial_frequency_mhz=data.get("initial_frequency_mhz"),
            group=data.get("group"),
            rep=int(data.get("rep", 0)),
            threads=int(data.get("threads", 1)),
            **_options_from_dict(data),
        )


def _options_from_dict(data: Mapping) -> dict:
    """The ``fault_plan`` / ``adaptation`` / ``resilience`` a cell (or
    a plan file's top level) serializes; None where absent."""
    builders = (
        ("fault_plan", FaultPlan.from_dict),
        ("adaptation", lambda value: AdaptationConfig(**value)),
        ("resilience", lambda value: ResilienceConfig(**value)),
    )
    return {
        key: None if data.get(key) is None else build(data[key])
        for key, build in builders
    }


#: ExperimentConfig fields that serialize (the machine config must be
#: default-constructed; bespoke platform models stay in-process).
_CONFIG_FIELDS = ("scale", "runs", "seed", "keep_trace", "max_seconds")


@dataclass(frozen=True)
class RunPlan:
    """A configured batch of cells.

    This is the single declarative description the execution engine
    consumes: serial and parallel execution of the same plan produce
    bit-identical per-cell results.  Build one directly, via
    :meth:`sweep`, or load one from JSON.
    """

    config: ExperimentConfig
    cells: tuple[RunCell, ...]

    def __len__(self) -> int:
        return len(self.cells)

    def stamp(self, **options) -> "RunPlan":
        """This plan with each given option (``fault_plan``,
        ``adaptation``, ``resilience``) set on every cell that leaves it
        unset; the plan itself when none is given."""
        options = {k: v for k, v in options.items() if v is not None}
        if not options:
            return self
        return replace(self, cells=tuple(
            replace(cell, **{
                key: value for key, value in options.items()
                if getattr(cell, key) is None
            })
            for cell in self.cells
        ))

    @classmethod
    def sweep(
        cls,
        workloads: Iterable[str],
        governors: Iterable[GovernorSpec],
        config: ExperimentConfig | None = None,
        seeds: Sequence[int] = (0,),
        threads: Sequence[int] = (1,),
        fault_plan: FaultPlan | None = None,
        adaptation: AdaptationConfig | None = None,
        resilience: ResilienceConfig | None = None,
    ) -> "RunPlan":
        """The full cross product workloads x governors x seeds x threads.

        ``seeds`` become per-cell ``seed_offset`` values; the paper's
        median protocol instead uses ``config.runs`` via
        :meth:`with_median_cells`.  ``threads`` values other than 1 run
        the cell on a multicore machine with that many cores.
        ``fault_plan``, ``adaptation`` and ``resilience`` are set on
        every cell.
        """
        config = config or ExperimentConfig()
        cells = tuple(
            RunCell(
                workload=w,
                governor=g,
                seed_offset=s,
                threads=t,
                group=w,
                fault_plan=fault_plan,
                adaptation=adaptation,
                resilience=resilience,
            )
            for w in workloads
            for g in governors
            for s in seeds
            for t in threads
        )
        return cls(config=config, cells=cells)

    @classmethod
    def sweep_axes(
        cls,
        axes: Mapping[str, Iterable],
        config: ExperimentConfig | None = None,
        **options,
    ) -> "RunPlan":
        """:meth:`sweep` from a mapping of named axes, validated up front.

        Unknown axis names fail immediately with a :class:`PlanError`
        naming the valid axes, instead of silently vanishing into
        ``**kwargs`` or exploding deep inside cell construction.
        """
        if not isinstance(axes, Mapping):
            raise PlanError("sweep axes must be a mapping of axis -> values")
        unknown = sorted(set(axes) - set(VALID_SWEEP_AXES))
        if unknown:
            raise PlanError(
                f"unknown sweep axis(es) {unknown}; "
                f"valid axes are {list(VALID_SWEEP_AXES)}"
            )
        missing = sorted({"workloads", "governors"} - set(axes))
        if missing:
            raise PlanError(
                f"sweep axes missing required axis(es) {missing}; "
                f"valid axes are {list(VALID_SWEEP_AXES)}"
            )
        return cls.sweep(
            workloads=tuple(axes["workloads"]),
            governors=tuple(axes["governors"]),
            config=config,
            seeds=tuple(axes.get("seeds", (0,))),
            threads=tuple(axes.get("threads", (1,))),
            **options,
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form of the whole plan."""
        if self.config.machine != MachineConfig():
            raise ExperimentError(
                "plans with a non-default machine config do not serialize; "
                "construct them in-process"
            )
        return {
            "format": PLAN_FORMAT_VERSION,
            "config": {
                key: getattr(self.config, key) for key in _CONFIG_FIELDS
            },
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def to_json(self) -> str:
        """Serialize the plan for ``repro-power run --plan``."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunPlan":
        """Inverse of :meth:`to_dict` (validates the format version).

        A top-level ``fault_plan`` / ``adaptation`` / ``resilience`` is
        set on every cell that leaves it unset.
        """
        if not isinstance(data, Mapping) or "cells" not in data:
            raise ExperimentError("run plan must be a mapping with 'cells'")
        version = data.get("format", PLAN_FORMAT_VERSION)
        if version != PLAN_FORMAT_VERSION:
            raise ExperimentError(
                f"unsupported plan format {version!r} "
                f"(this build reads {PLAN_FORMAT_VERSION})"
            )
        raw_config = dict(data.get("config", {}))
        unknown = set(raw_config) - set(_CONFIG_FIELDS)
        if unknown:
            raise ExperimentError(
                f"unknown plan config fields: {sorted(unknown)}"
            )
        return cls(
            config=ExperimentConfig(**raw_config),
            cells=tuple(RunCell.from_dict(c) for c in data["cells"]),
        ).stamp(**_options_from_dict(data))

    @classmethod
    def from_json(cls, text: str) -> "RunPlan":
        """Parse a plan serialized with :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ExperimentError(f"malformed run plan JSON: {error}") from None
        return cls.from_dict(data)

