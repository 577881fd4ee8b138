"""RunPlan / GovernorSpec / RunCell: construction and serialization."""

from __future__ import annotations

import json

import pytest

from repro.adaptation.manager import AdaptationConfig
from repro.core.governors.performance_maximizer import PerformanceMaximizer
from repro.core.governors.powersave import PowerSave
from repro.core.models.power import LinearPowerModel
from repro.core.resilience import ResilienceConfig
from repro.errors import ExperimentError, PlanError
from repro.exec.plan import (
    PLAN_FORMAT_VERSION,
    VALID_SWEEP_AXES,
    ExperimentConfig,
    GovernorSpec,
    RunCell,
    RunPlan,
)
from repro.faults.plan import FaultPlan, SampleFaults


def test_unknown_kind_rejected():
    with pytest.raises(ExperimentError, match="unknown governor kind"):
        GovernorSpec(kind="turbo")


def test_unknown_model_source_rejected():
    with pytest.raises(ExperimentError, match="power_model"):
        GovernorSpec(kind="pm", power_limit_w=14.5, power_model="magic")


def test_spec_builds_governors(table):
    pm = GovernorSpec.pm(14.5, power_model="paper").build(table)
    assert isinstance(pm, PerformanceMaximizer)
    ps = GovernorSpec.ps(0.8).build(table)
    assert isinstance(ps, PowerSave)


def test_spec_round_trip():
    spec = GovernorSpec.pm(
        13.5, power_model="paper", raise_window=5, guardband_w=0.25
    )
    clone = GovernorSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert clone == spec


def test_inline_model_round_trip(table):
    spec = GovernorSpec.pm(14.5, power_model=LinearPowerModel.paper_model())
    clone = GovernorSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert isinstance(clone.power_model, LinearPowerModel)
    assert clone.resolve_power_model(0).estimate(
        table.fastest, 1.0
    ) == pytest.approx(
        spec.resolve_power_model(0).estimate(table.fastest, 1.0)
    )


def test_plan_round_trip():
    faults = FaultPlan(seed=3, sample=SampleFaults(drop_prob=0.01))
    plan = RunPlan(
        config=ExperimentConfig(scale=0.1, runs=3, seed=7, keep_trace=True),
        cells=(
            RunCell(workload="ammp", governor=GovernorSpec.pm(
                14.5, power_model="paper"
            ), seed_offset=100, group="ammp", rep=1),
            RunCell(workload="mcf", governor=GovernorSpec.fixed(1600.0)),
        ),
    ).stamp(fault_plan=faults, adaptation=AdaptationConfig(cooldown_ticks=99))
    clone = RunPlan.from_json(plan.to_json())
    assert clone.config == plan.config
    assert clone.cells == plan.cells
    assert all(cell.fault_plan == faults for cell in clone.cells)
    assert all(cell.resilience is None for cell in clone.cells)
    assert "fault_plan" not in plan.to_dict()


def test_plan_file_options_stamp_the_cells_that_leave_them_unset():
    own = FaultPlan(seed=8)
    data = {
        "config": {"scale": 0.1},
        "cells": [
            {"workload": "ammp", "governor": {"kind": "dbs"}},
            {"workload": "mcf", "governor": {"kind": "dbs"},
             "fault_plan": own.to_dict()},
        ],
        "fault_plan": {"seed": 3, "sample": {"drop_prob": 0.01}},
        "resilience": {},
    }
    plan = RunPlan.from_dict(data)
    shared = FaultPlan.from_dict(data["fault_plan"])
    assert [c.fault_plan for c in plan.cells] == [shared, own]
    assert all(c.resilience == ResilienceConfig() for c in plan.cells)
    assert all(c.adaptation is None for c in plan.cells)


def test_plan_cell_seed():
    cell = RunCell(workload="ammp", governor=GovernorSpec.dbs(),
                   seed_offset=200)
    plan = RunPlan(ExperimentConfig(seed=5), (cell,))
    assert plan.config.machine_config(cell.seed_offset).seed == 205


def test_sweep_cross_product():
    plan = RunPlan.sweep(
        ["ammp", "mcf"],
        [GovernorSpec.pm(14.5), GovernorSpec.ps(0.8)],
        seeds=(0, 100),
    )
    assert len(plan) == 8
    assert {cell.group for cell in plan.cells} == {"ammp", "mcf"}
    assert {cell.seed_offset for cell in plan.cells} == {0, 100}


def test_plan_rejects_future_format():
    plan = RunPlan(
        ExperimentConfig(), (RunCell("ammp", GovernorSpec.dbs()),)
    )
    data = plan.to_dict()
    data["format"] = PLAN_FORMAT_VERSION + 1
    with pytest.raises(ExperimentError, match="format"):
        RunPlan.from_dict(data)


def test_plan_rejects_malformed_json():
    with pytest.raises(ExperimentError, match="malformed"):
        RunPlan.from_json("{not json")
    with pytest.raises(ExperimentError, match="mapping"):
        RunPlan.from_dict(["nope"])


def test_sweep_threads_axis():
    plan = RunPlan.sweep(
        ["ammp"], [GovernorSpec.energy_optimal()], threads=(1, 2, 4),
    )
    assert len(plan) == 3
    assert [cell.threads for cell in plan.cells] == [1, 2, 4]
    assert plan.cells[2].label == "ammp/energy-optimal/t4"


def test_threads_cells_round_trip():
    plan = RunPlan.sweep(
        ["ammp", "swim"],
        [GovernorSpec.energy_optimal(power_model="paper")],
        threads=(1, 2),
    )
    clone = RunPlan.from_json(plan.to_json())
    assert clone.cells == plan.cells
    assert [c.threads for c in clone.cells] == [1, 2, 1, 2]
    # threads=1 stays out of the serialized form (backward compatible).
    assert "threads" not in plan.cells[0].to_dict()
    assert plan.cells[1].to_dict()["threads"] == 2


def test_cell_rejects_bad_threads():
    with pytest.raises(PlanError, match="threads"):
        RunCell(workload="ammp", governor=GovernorSpec.dbs(), threads=0)
    with pytest.raises(PlanError, match="threads"):
        RunCell(workload="ammp", governor=GovernorSpec.dbs(), threads=2.0)


def test_sweep_axes_happy_path():
    plan = RunPlan.sweep_axes({
        "workloads": ["ammp"],
        "governors": [GovernorSpec.ps(0.8)],
        "seeds": (0, 100),
        "threads": (1, 2),
    })
    assert len(plan) == 4
    assert {c.threads for c in plan.cells} == {1, 2}


def test_sweep_axes_rejects_unknown_axis():
    with pytest.raises(PlanError, match="unknown sweep axis") as info:
        RunPlan.sweep_axes({
            "workloads": ["ammp"],
            "governors": [GovernorSpec.dbs()],
            "cores": (2,),
        })
    # The error lists every valid axis so the caller can self-correct.
    for axis in VALID_SWEEP_AXES:
        assert axis in str(info.value)


def test_sweep_axes_rejects_missing_required_axis():
    with pytest.raises(PlanError, match="workloads"):
        RunPlan.sweep_axes({"governors": [GovernorSpec.dbs()]})
    with pytest.raises(PlanError, match="mapping"):
        RunPlan.sweep_axes([("workloads", ["ammp"])])


def test_new_governor_kinds_round_trip(table):
    from repro.core.governors.energy_efficiency import EnergyDelayOptimizer
    from repro.core.governors.energy_optimal import EnergyOptimalSearch

    for spec, cls in (
        (GovernorSpec.energy_optimal(power_model="paper"), EnergyOptimalSearch),
        (GovernorSpec.edp(power_model="paper"), EnergyDelayOptimizer),
    ):
        clone = GovernorSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert isinstance(clone.build(table), cls)

