"""Tests for the AdaptationManager lifecycle (engage/observe/swap/rollback)."""

import numpy as np
import pytest

from repro.acpi.pstates import pentium_m_755_table
from repro.adaptation.manager import AdaptationConfig, AdaptationManager
from repro.core.controller import PowerManagementController
from repro.core.governors.demand_based import DemandBasedSwitching
from repro.core.governors.performance_maximizer import PerformanceMaximizer
from repro.core.models.power import LinearPowerModel
from repro.errors import AdaptationError
from repro.platform.events import Event
from repro.platform.machine import Machine, MachineConfig
from repro.workloads import get_workload

TABLE = pentium_m_755_table()


def make_governor(limit_w: float = 13.5) -> PerformanceMaximizer:
    return PerformanceMaximizer(
        TABLE, LinearPowerModel.paper_model(), limit_w
    )


def quick_config(**overrides) -> AdaptationConfig:
    defaults = dict(
        ph_min_samples=30,
        ph_threshold_w=5.0,
        cooldown_ticks=50,
        probation_ticks=40,
        min_samples_per_state=10,
    )
    defaults.update(overrides)
    return AdaptationConfig(**defaults)


def drive(
    manager: AdaptationManager,
    governor,
    ticks: int,
    bias_w,
    seed: int = 0,
    start_tick: int = 0,
):
    """Feed ticks whose measured power = active estimate + bias_w(tick)."""
    pstate = TABLE.fastest
    rng = np.random.default_rng(seed)
    for tick in range(start_tick, start_tick + ticks):
        dpc = rng.uniform(0.8, 2.2)
        bias = bias_w(tick) if callable(bias_w) else bias_w
        measured = governor.model.estimate(pstate, dpc) + bias
        manager.observe(
            pstate.frequency_mhz, dpc, max(measured, 0.0), now_s=tick * 0.01
        )


class TestEngage:
    def test_engages_pm_family(self):
        manager = AdaptationManager(quick_config())
        assert manager.engage(make_governor()) is True
        assert manager.engaged
        assert manager.registry.active_version == 1
        assert (
            manager.registry.get(1).provenance["source"] == "offline_baseline"
        )

    def test_inert_on_incompatible_governor(self):
        manager = AdaptationManager(quick_config())
        assert manager.engage(DemandBasedSwitching(TABLE)) is False
        assert not manager.engaged
        # Observations on an unengaged manager are silent no-ops.
        assert manager.observe(2000.0, 1.0, 10.0, now_s=0.0) is False
        assert manager.summary()["engaged"] is False
        assert len(manager.registry) == 0

    def test_observe_skips_samples_without_regressor(self):
        """A hook-mode run folds in only the ticks whose counter group
        counts DPC (the model's regressor); a multiplexed group without
        it is skipped at the kernel's call site."""

        class RotatingPM(PerformanceMaximizer):
            event_groups = (
                (Event.INST_DECODED,),
                (Event.INST_RETIRED, Event.DCU_MISS_OUTSTANDING),
            )

            def decide(self, sample, current):
                if Event.INST_DECODED not in sample.rates:
                    return current
                return super().decide(sample, current)

        machine = Machine(MachineConfig(seed=3))
        governor = RotatingPM(
            machine.config.table, LinearPowerModel.paper_model(), 13.5
        )
        manager = AdaptationManager(quick_config())
        calls = []
        observe = manager.observe
        manager.observe = lambda *args: calls.append(args) or observe(*args)
        result = PowerManagementController(
            machine, governor, adaptation=manager
        ).run(get_workload("gzip").scaled(0.05))
        ticks = round(result.duration_s / machine.config.tick_s)
        # The groups alternate, DPC's first.
        assert len(calls) == (ticks + 1) // 2
        assert manager._ticks == len(calls)
        # The DPC group counts neither IPC nor DCU.
        assert all(args[4:] == (None, None) for args in calls)

    def test_ipc_and_dcu_feed_the_misclassification_monitor(self):
        """Memory-bound DCU/IPC with core-bound IPC scaling across
        p-state changes is a performance-model misclassification."""
        manager = AdaptationManager(quick_config(misclass_min_observations=5))
        governor = make_governor()
        manager.engage(governor)
        for tick in range(40):
            freq = 2000.0 if tick % 2 else 1000.0
            estimate = governor.model.estimate(freq, 1.0)
            manager.observe(freq, 1.0, estimate, tick * 0.01, 1.0, 5.0)
        assert manager.perf_drift_detections >= 1
        before = manager.perf_drift_detections
        for tick in range(40, 80):
            freq = 2000.0 if tick % 2 else 1000.0
            estimate = governor.model.estimate(freq, 1.0)
            manager.observe(freq, 1.0, estimate, tick * 0.01)
        assert manager.perf_drift_detections == before


class TestRecalibration:
    def test_persistent_bias_triggers_recalibration(self):
        manager = AdaptationManager(quick_config())
        governor = make_governor()
        baseline = governor.model
        manager.engage(governor)

        drive(manager, governor, ticks=60, bias_w=0.0)
        assert manager.recalibrations == 0

        # A sustained +1.5 W bias appears; bias_w is measured against
        # the *active* model, so after the hot swap the bias tracks the
        # same drifted truth the RLS fitted.
        truth_offset = 1.5
        pstate = TABLE.fastest
        rng = np.random.default_rng(1)
        for tick in range(60, 360):
            dpc = rng.uniform(0.8, 2.2)
            measured = baseline.estimate(pstate, dpc) + truth_offset
            manager.observe(
                pstate.frequency_mhz, dpc, measured, now_s=tick * 0.01
            )

        assert manager.drift_detections >= 1
        assert manager.recalibrations >= 1
        assert manager.rollbacks == 0
        assert len(manager.registry) >= 2
        assert governor.model is not baseline
        # The swapped-in model explains the drifted readings.
        assert governor.model.estimate(pstate, 1.5) == pytest.approx(
            baseline.estimate(pstate, 1.5) + truth_offset, abs=0.2
        )

    def test_unvisited_pstates_keep_baseline_coefficients(self):
        manager = AdaptationManager(quick_config())
        governor = make_governor()
        baseline = governor.model
        manager.engage(governor)
        drive(manager, governor, ticks=60, bias_w=0.0)
        pstate = TABLE.fastest
        rng = np.random.default_rng(4)
        for tick in range(60, 360):
            dpc = rng.uniform(0.8, 2.2)
            measured = baseline.estimate(pstate, dpc) + 1.5
            manager.observe(
                pstate.frequency_mhz,
                dpc,
                measured,
                now_s=tick * 0.01,
            )
        assert manager.recalibrations >= 1
        # Only the fastest p-state saw samples; the rest are inherited.
        assert governor.model.alpha(600.0) == baseline.alpha(600.0)
        assert governor.model.beta(600.0) == baseline.beta(600.0)

    def test_clean_run_never_recalibrates(self):
        manager = AdaptationManager(quick_config())
        governor = make_governor()
        manager.engage(governor)
        rng = np.random.default_rng(5)
        pstate = TABLE.fastest
        for tick in range(500):
            dpc = rng.uniform(0.8, 2.2)
            noise = rng.normal(0.0, 0.15)
            measured = governor.model.estimate(pstate, dpc) + noise
            manager.observe(
                pstate.frequency_mhz,
                dpc,
                max(measured, 0.0),
                now_s=tick * 0.01,
            )
        assert manager.drift_detections == 0
        assert manager.recalibrations == 0
        assert len(manager.registry) == 1


class TestRollback:
    def test_failed_probation_rolls_back(self):
        manager = AdaptationManager(quick_config())
        governor = make_governor()
        baseline = governor.model
        manager.engage(governor)

        # Clean settling phase, then sustained bias -> recalibration.
        drive(manager, governor, ticks=60, bias_w=0.0)
        pstate = TABLE.fastest
        rng = np.random.default_rng(2)
        tick = 60
        while manager.recalibrations == 0 and tick < 400:
            dpc = rng.uniform(0.8, 2.2)
            measured = baseline.estimate(pstate, dpc) + 1.5
            manager.observe(
                pstate.frequency_mhz,
                dpc,
                measured,
                now_s=tick * 0.01,
            )
            tick += 1
        assert manager.recalibrations == 1
        swapped = governor.model

        # During probation the new model turns out to be far worse than
        # the pre-swap residuals ever were: roll back to the baseline.
        for _ in range(manager.config.probation_ticks):
            dpc = rng.uniform(0.8, 2.2)
            measured = swapped.estimate(pstate, dpc) + 10.0
            manager.observe(
                pstate.frequency_mhz,
                dpc,
                measured,
                now_s=tick * 0.01,
            )
            tick += 1
        assert manager.rollbacks == 1
        assert manager.registry.active_version == 1
        assert governor.model.estimate(pstate, 1.2) == pytest.approx(
            baseline.estimate(pstate, 1.2)
        )

    def test_successful_probation_keeps_model(self):
        """A one-time truth shift: refit matches it, probation passes."""
        manager = AdaptationManager(quick_config())
        governor = make_governor()
        baseline = governor.model
        manager.engage(governor)
        drive(manager, governor, ticks=60, bias_w=0.0)
        pstate = TABLE.fastest
        rng = np.random.default_rng(9)
        for tick in range(60, 460):
            dpc = rng.uniform(0.8, 2.2)
            measured = baseline.estimate(pstate, dpc) + 1.5
            manager.observe(
                pstate.frequency_mhz,
                dpc,
                measured,
                now_s=tick * 0.01,
            )
        assert manager.recalibrations >= 1
        assert manager.rollbacks == 0
        assert manager.registry.active_version == len(manager.registry)


class TestGuardband:
    def test_noisy_residuals_widen_guardband(self):
        config = quick_config(guardband_gain=1.5, max_guardband_w=2.0)
        manager = AdaptationManager(config)
        governor = make_governor()
        base = governor.guardband_w
        manager.engage(governor)
        # Zero-mean alternating residuals: no drift, lots of spread.
        drive(manager, governor, 200, lambda t: 1.0 if t % 2 else -1.0)
        assert manager.drift_detections == 0
        assert governor.guardband_w > base
        assert governor.guardband_w <= config.max_guardband_w

    def test_quiet_residuals_leave_guardband_alone(self):
        manager = AdaptationManager(quick_config())
        governor = make_governor()
        base = governor.guardband_w
        manager.engage(governor)
        drive(manager, governor, 200, 0.0)
        assert governor.guardband_w == pytest.approx(base, abs=0.05)

    def test_widening_can_be_disabled(self):
        manager = AdaptationManager(quick_config(widen_guardband=False))
        governor = make_governor()
        base = governor.guardband_w
        manager.engage(governor)
        drive(manager, governor, 200, lambda t: 1.0 if t % 2 else -1.0)
        assert governor.guardband_w == base


class TestConfigValidation:
    def test_bad_knobs_rejected(self):
        with pytest.raises(AdaptationError):
            AdaptationConfig(forgetting_factor=0.0)
        with pytest.raises(AdaptationError):
            AdaptationConfig(min_samples_per_state=0)
        with pytest.raises(AdaptationError):
            AdaptationConfig(rollback_tolerance=0.9)
        with pytest.raises(AdaptationError):
            AdaptationConfig(guardband_gain=-1.0)

    def test_summary_is_json_safe(self):
        import json

        manager = AdaptationManager(quick_config())
        manager.engage(make_governor())
        drive(manager, make_governor(), 0, 0.0)
        assert json.loads(json.dumps(manager.summary()))["engaged"] is True
