"""Tests for fault plan validation, round-tripping and loading."""

import json

import pytest

from repro.errors import FaultPlanError
from repro.faults import (
    FaultPlan,
    MeterFaults,
    SampleFaults,
    ThermalFaults,
    TransitionFaults,
    load_fault_plan,
)


class TestSectionValidation:
    def test_probabilities_must_be_in_unit_interval(self):
        with pytest.raises(FaultPlanError, match="drop_prob"):
            SampleFaults(drop_prob=1.5)
        with pytest.raises(FaultPlanError, match="dropout_prob"):
            MeterFaults(dropout_prob=-0.1)
        with pytest.raises(FaultPlanError, match="fail_prob"):
            TransitionFaults(fail_prob="often")
        with pytest.raises(FaultPlanError, match="stuck_prob"):
            ThermalFaults(stuck_prob=2.0)

    def test_magnitudes_validated(self):
        with pytest.raises(FaultPlanError, match="garble_magnitude"):
            SampleFaults(garble_magnitude=-1.0)
        with pytest.raises(FaultPlanError, match="spike_factor"):
            MeterFaults(spike_factor=1.5)
        with pytest.raises(FaultPlanError, match="stall_s"):
            TransitionFaults(stall_s=-0.1)

    def test_any_enabled(self):
        assert not SampleFaults().any_enabled
        assert SampleFaults(drop_prob=0.1).any_enabled


class TestPlanActivity:
    def test_default_plan_is_inert(self):
        assert not FaultPlan().active

    def test_disabled_plan_is_never_active(self):
        plan = FaultPlan(enabled=False, sample=SampleFaults(drop_prob=0.5))
        assert not plan.active

    def test_enabled_plan_with_any_model_is_active(self):
        plan = FaultPlan(meter=MeterFaults(spike_prob=0.01))
        assert plan.active


class TestDictRoundTrip:
    def test_round_trip_preserves_plan(self):
        plan = FaultPlan(
            seed=9,
            sample=SampleFaults(drop_prob=0.05, garble_prob=0.01),
            transition=TransitionFaults(fail_prob=0.2, stall_prob=0.1),
            thermal=ThermalFaults(stuck_prob=0.01),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_top_level_key_rejected(self):
        for data in ({"sampler": {}}, {"node": {"crash_prob": 0.01}}):
            with pytest.raises(FaultPlanError,
                               match="unknown fault plan keys"):
                FaultPlan.from_dict(data)

    def test_unknown_section_key_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown sample fault keys"):
            FaultPlan.from_dict({"sample": {"drop_probability": 0.1}})

    def test_non_mapping_rejected(self):
        with pytest.raises(FaultPlanError, match="must be a mapping"):
            FaultPlan.from_dict([1, 2])
        with pytest.raises(FaultPlanError, match="section must be a mapping"):
            FaultPlan.from_dict({"meter": 3})

    def test_seed_and_enabled_types_checked(self):
        with pytest.raises(FaultPlanError, match="seed"):
            FaultPlan.from_dict({"seed": "zero"})
        with pytest.raises(FaultPlanError, match="enabled"):
            FaultPlan.from_dict({"enabled": "yes"})


class TestLoadFaultPlan:
    def test_loads_json(self, tmp_path):
        spec = tmp_path / "plan.json"
        spec.write_text(json.dumps(
            {"seed": 3, "sample": {"drop_prob": 0.07}}
        ))
        plan = load_fault_plan(spec)
        assert plan.seed == 3
        assert plan.sample.drop_prob == pytest.approx(0.07)

    def test_missing_file_gives_clear_error(self, tmp_path):
        with pytest.raises(FaultPlanError, match="cannot read fault spec"):
            load_fault_plan(tmp_path / "nope.json")

    def test_garbage_spec_gives_clear_error(self, tmp_path):
        # Message differs depending on whether PyYAML is installed; both
        # variants name the spec and say JSON parsing failed.
        spec = tmp_path / "bad.json"
        spec.write_text("{{{{")
        with pytest.raises(FaultPlanError, match="valid JSON"):
            load_fault_plan(spec)

    def test_loads_yaml_when_pyyaml_present(self, tmp_path):
        pytest.importorskip("yaml")
        spec = tmp_path / "plan.yaml"
        spec.write_text("seed: 5\ntransition:\n  fail_prob: 0.25\n")
        plan = load_fault_plan(spec)
        assert plan.seed == 5
        assert plan.transition.fail_prob == pytest.approx(0.25)


class TestMeterDrift:
    def test_gain_is_identity_before_onset(self):
        meter = MeterFaults(drift_rate_per_s=0.05, drift_start_s=1.0)
        assert meter.drift_gain(0.0) == 1.0
        assert meter.drift_gain(1.0) == 1.0

    def test_gain_ramps_linearly_then_saturates(self):
        meter = MeterFaults(
            drift_rate_per_s=0.05, drift_start_s=1.0, drift_max_gain=0.2
        )
        assert meter.drift_gain(2.0) == pytest.approx(1.05)
        assert meter.drift_gain(3.0) == pytest.approx(1.10)
        # 0.05/s saturates at +20% after 4 s of drift.
        assert meter.drift_gain(5.0) == pytest.approx(1.20)
        assert meter.drift_gain(500.0) == pytest.approx(1.20)

    def test_drift_enabled_needs_rate_and_headroom(self):
        assert not MeterFaults().drift_enabled
        assert not MeterFaults(drift_rate_per_s=0.05, drift_max_gain=0.0).drift_enabled
        assert MeterFaults(drift_rate_per_s=0.05).drift_enabled
        # Drift alone makes the section (and hence a plan) active.
        assert MeterFaults(drift_rate_per_s=0.05).any_enabled
        assert FaultPlan(meter=MeterFaults(drift_rate_per_s=0.05)).active

    def test_disabled_drift_gain_is_identity(self):
        meter = MeterFaults(drift_rate_per_s=0.0)
        assert meter.drift_gain(10.0) == 1.0

    def test_drift_fields_validated(self):
        with pytest.raises(FaultPlanError, match="drift_rate_per_s"):
            MeterFaults(drift_rate_per_s=-0.1)
        with pytest.raises(FaultPlanError, match="drift_start_s"):
            MeterFaults(drift_start_s=-1.0)
        with pytest.raises(FaultPlanError, match="drift_max_gain"):
            MeterFaults(drift_max_gain=-0.5)

    def test_drift_round_trips_through_dict(self):
        plan = FaultPlan(
            seed=4,
            meter=MeterFaults(
                drift_rate_per_s=0.04, drift_start_s=1.5, drift_max_gain=0.3
            ),
        )
        restored = FaultPlan.from_dict(plan.to_dict())
        assert restored == plan
        assert restored.meter.drift_gain(2.5) == pytest.approx(1.04)
