"""Tests for the churn-tolerant hierarchical fleet coordinator."""

import numpy as np
import pytest

from repro.errors import CheckpointError, ExperimentError
from repro.fleet.cluster import (
    ClusterResult,
    FleetSpec,
    HierarchicalFleetController,
    fleet_result_digest,
    run_fleet,
)
from repro.fleet.scenario import FleetScenario
from repro.fleet.store import NodeState
from repro.telemetry import TelemetryRecorder


def _quiet_scenario(ticks=40, **overrides):
    """A scenario with all failure machinery off (opt back in per test)."""
    params = dict(
        ticks=ticks,
        crash_rate_per_node_s=0.0,
        finish_frac=0.0,
        telemetry_loss_rate_per_node_s=0.0,
        rack_outage_at_frac=2.0,
        partition_at_frac=2.0,
        noise_sigma=0.0,
    )
    params.update(overrides)
    return FleetScenario(**params)


class TestFleetSpec:
    def test_budget_scales_with_nodes(self):
        spec = FleetSpec(nodes=100, budget_per_node_w=11.0)
        assert spec.budget_w == pytest.approx(1100.0)

    def test_json_roundtrip(self):
        spec = FleetSpec(nodes=64, seed=3,
                         scenario=FleetScenario(ticks=77))
        assert FleetSpec.from_json(spec.to_json()) == spec

    def test_rejects_bad_parameters(self):
        with pytest.raises(ExperimentError):
            FleetSpec(nodes=0)
        with pytest.raises(ExperimentError):
            FleetSpec(budget_per_node_w=0.0)
        with pytest.raises(ExperimentError):
            FleetSpec(demand_headroom_w=-1.0)
        with pytest.raises(ExperimentError):
            FleetSpec(partition_margin=1.0)
        with pytest.raises(ExperimentError):
            FleetSpec(allocator="bogus")


class TestQuietFleet:
    def test_run_meets_budget_and_invariants(self):
        spec = FleetSpec(nodes=64, scenario=_quiet_scenario(), seed=1)
        ctl = HierarchicalFleetController(spec)
        result = ctl.run()
        assert isinstance(result, ClusterResult)
        assert result.ticks == 40
        assert result.budget_violation_fraction() == 0.0
        assert not result.degraded
        assert ctl.tree.check_invariants(
            ctl.store.grant_w, ctl.store.accountable_mask()) == []

    def test_power_never_exceeds_budget_per_tick(self):
        """Stronger than the windowed bound: per-tick, noise off."""
        spec = FleetSpec(nodes=64, scenario=_quiet_scenario(), seed=2)
        result = run_fleet(spec)
        for _, watts in result.power_series:
            assert watts <= spec.budget_w + 1e-6

    def test_zero_demand_fleet(self):
        spec = FleetSpec(nodes=32, scenario=_quiet_scenario(ticks=20))
        ctl = HierarchicalFleetController(spec)
        ctl.engine.demands = lambda tick: np.zeros(32)
        result = ctl.run()
        assert result.mean_fleet_power_w == pytest.approx(0.0)
        assert result.budget_violation_fraction() == 0.0
        # Idle nodes still hold their floor reservation.
        assert (ctl.store.grant_w >= ctl.store.floor_w - 1e-9).all()

    def test_event_driven_quiesces_without_events(self):
        """With no churn and flat demand, passes stop touching the tree."""
        spec = FleetSpec(
            nodes=64,
            scenario=_quiet_scenario(ticks=30, diurnal_depth=0.0,
                                     flash_magnitude=1.0),
            refresh_period_ticks=0,
        )
        ctl = HierarchicalFleetController(spec)
        ctl.engine.demands = lambda tick: np.full(64, 9.0)
        result = ctl.run()
        # Bring-up allocates; the flat steady state re-divides nothing.
        assert result.reallocations <= 2

    def test_demand_serves_a_hungry_node_better_than_equal_share(self):
        energy = {}
        for policy in ("equal", "demand"):
            spec = FleetSpec(
                nodes=4, budget_per_node_w=10.0, scenario=_quiet_scenario(),
                allocator=policy, leaf_policy=policy,
            )
            ctl = HierarchicalFleetController(spec)
            # One node wants 18 W, three want 9 W: 45 W against 40 W.
            ctl.engine.demands = lambda tick: np.array([18.0, 9.0, 9.0, 9.0])
            result = ctl.run()
            assert result.budget_violation_fraction() == 0.0
            energy[policy] = [n.energy_j for n in result.nodes.values()]
        # Equal share caps the hungry node at 10 W; water-filling moves
        # the modest nodes' slack to it.
        assert energy["demand"][0] > energy["equal"][0]
        assert energy["demand"][1] < energy["equal"][1]

    @pytest.mark.parametrize("policy", ["equal", "demand"])
    def test_finished_nodes_share_moves_to_survivors(self, policy):
        spec = FleetSpec(
            nodes=4, budget_per_node_w=10.0, scenario=_quiet_scenario(),
            allocator=policy, leaf_policy=policy,
        )
        ctl = HierarchicalFleetController(spec)
        ctl.engine.demands = lambda tick: np.full(4, 18.0)
        ctl._finish_tick[0] = 10
        while ctl.tick < 10:
            ctl.advance()
        assert ctl.store.grant_w == pytest.approx([10.0] * 4)
        result = ctl.run()
        assert result.finishes == 1
        # The finished node holds nothing; its 10 W went to the rest.
        assert ctl.store.grant_w == pytest.approx([0.0] + [40.0 / 3] * 3)
        assert result.budget_violation_fraction() == 0.0


class TestChurnFleet:
    def test_crashes_restarts_and_bound_hold(self):
        spec = FleetSpec(
            nodes=128,
            scenario=FleetScenario(ticks=80,
                                   crash_rate_per_node_s=2e-3),
            seed=5,
        )
        result = run_fleet(spec)
        assert result.crashes > 0
        assert result.restarts > 0
        assert result.budget_violation_fraction() <= 0.01

    def test_all_nodes_crashed(self):
        spec = FleetSpec(
            nodes=16,
            scenario=_quiet_scenario(
                ticks=20, crash_rate_per_node_s=1.0,
                restart_delay_s=1000.0, restart_jitter_s=0.0,
            ),
        )
        result = run_fleet(spec)
        assert result.crashes == 16
        assert result.restarts == 0
        # A fully-dark fleet draws nothing and violates nothing.
        assert result.power_series[-1][1] == pytest.approx(0.0)
        assert result.budget_violation_fraction() == 0.0

    def test_stale_holdover_decays_to_dark(self):
        spec = FleetSpec(
            nodes=16,
            scenario=_quiet_scenario(ticks=60),
            stale_hold_s=3.0,
            stale_decay_s=5.0,
            dark_after_s=20.0,
        )
        ctl = HierarchicalFleetController(spec)
        for _ in range(5):
            ctl.advance()
        # Node 0 goes silent for the rest of the run.
        ctl.store.stale_until_s[0] = 1e9
        reported_at_silence = ctl.store.reported_demand_w[0]
        for _ in range(10):
            ctl.advance()
        assert ctl.store.state[0] == int(NodeState.STALE)
        assert ctl.store.reported_demand_w[0] < reported_at_silence
        while ctl.tick < 40:
            ctl.advance()
        assert ctl.store.state[0] == int(NodeState.DARK)
        assert ctl.store.reported_demand_w[0] == pytest.approx(
            ctl.store.floor_w)

    def test_rack_outage_shifts_and_restores(self):
        spec = FleetSpec(
            nodes=64,
            scenario=_quiet_scenario(
                ticks=60, rack_outage_at_frac=0.3,
                rack_outage_duration_frac=0.2,
            ),
            seed=3,
        )
        ctl = HierarchicalFleetController(spec)
        result = ctl.run()
        assert result.outage_ticks > 0
        assert result.budget_violation_fraction() == 0.0
        # After restoration every rack is granted again.
        sl = ctl.topology.rack_node_slice(ctl._outage_rack)
        assert (ctl.store.grant_w[sl] > 0).all()

    def test_partition_degraded_mode_counts_ticks(self):
        spec = FleetSpec(
            nodes=64,
            scenario=_quiet_scenario(
                ticks=60, partition_at_frac=0.4,
                partition_duration_frac=0.2,
            ),
            partition_grace_s=2.0,
            seed=3,
        )
        result = run_fleet(spec)
        assert result.degraded
        assert result.degraded_ticks > 0
        assert result.budget_violation_fraction() == 0.0


class TestCheckpointResume:
    def test_resume_is_bit_identical(self, tmp_path):
        scenario = FleetScenario(ticks=60)
        ref = run_fleet(FleetSpec(nodes=64, scenario=scenario, seed=7))
        spec = FleetSpec(nodes=64, scenario=scenario, seed=7,
                         checkpoint_interval_ticks=10)
        ctl = HierarchicalFleetController(spec, checkpoint_dir=tmp_path)
        while ctl.tick < 37:
            ctl.advance()
        # Abandon mid-run; the newest durable checkpoint is tick 30.
        resumed = HierarchicalFleetController.resume(tmp_path)
        assert resumed.tick == 30
        result = resumed.run()
        assert fleet_result_digest(result) == fleet_result_digest(ref)

    def test_restart_at_checkpoint_instant(self, tmp_path):
        """A restart landing exactly on a checkpoint tick replays once."""
        scenario = _quiet_scenario(ticks=30)

        def _run(checkpoint_dir=None, abandon_at=None):
            spec = FleetSpec(
                nodes=16, scenario=scenario, seed=2,
                checkpoint_interval_ticks=(
                    10 if checkpoint_dir is not None else 0),
            )
            ctl = HierarchicalFleetController(
                spec, checkpoint_dir=checkpoint_dir)
            for _ in range(5):
                ctl.advance()
            # Crash node 0 by hand, restart due exactly at tick 10 --
            # the same instant the next checkpoint is written.
            ctl.store.state[0] = int(NodeState.CRASHED)
            ctl.store.restart_at_s[0] = 10.0 * scenario.tick_s
            ctl.store.grant_w[0] = 0.0
            ctl.store.applied_w[0] = 0.0
            if abandon_at is None:
                return ctl.run()
            while ctl.tick < abandon_at:
                ctl.advance()
            resumed = HierarchicalFleetController.resume(checkpoint_dir)
            assert resumed.tick == 10
            return resumed.run()

        reference = _run()
        resumed = _run(checkpoint_dir=tmp_path, abandon_at=13)
        assert (fleet_result_digest(resumed)
                == fleet_result_digest(reference))
        assert resumed.nodes[
            HierarchicalFleetController(
                FleetSpec(nodes=16, scenario=scenario)
            ).topology.node_name(0)
        ].final_limit_w > 0

    def test_resume_requires_manifest(self, tmp_path):
        with pytest.raises(CheckpointError):
            HierarchicalFleetController.resume(tmp_path)

    def test_checkpoint_requires_directory(self):
        ctl = HierarchicalFleetController(
            FleetSpec(nodes=8, scenario=_quiet_scenario(ticks=5)))
        with pytest.raises(CheckpointError):
            ctl.checkpoint()


class TestTelemetry:
    def test_fleet_events_are_emitted(self):
        recorder = TelemetryRecorder()
        events = []
        recorder.bus.subscribe(events.append)
        spec = FleetSpec(
            nodes=64,
            scenario=FleetScenario(ticks=60,
                                   crash_rate_per_node_s=5e-3),
            seed=1,
        )
        HierarchicalFleetController(spec, telemetry=recorder).run()
        kinds = {e.kind for e in events}
        assert "subtree_reallocation" in kinds
        assert "node_crashed" in kinds
        assert "subtree_outage" in kinds
        assert "partition_degraded" in kinds
        redistributes = [
            e for e in events
            if e.kind == "fault_recovered"
            and e.action == "redistribute"
        ]
        # Crashed budget shares move only when a reallocation lands.
        assert redistributes

    @pytest.mark.parametrize("policy", ["equal", "demand"])
    def test_budget_below_floors_emits_budget_infeasible(self, policy):
        recorder = TelemetryRecorder()
        events = []
        recorder.bus.subscribe(events.append)
        # 3 W per node against a 4 W floor: the floors cannot fit.
        spec = FleetSpec(
            nodes=16, budget_per_node_w=3.0,
            scenario=_quiet_scenario(ticks=10),
            allocator=policy, leaf_policy=policy,
        )
        assert spec.floor_w * spec.nodes > spec.budget_w
        result = HierarchicalFleetController(spec, telemetry=recorder).run()
        infeasible = [e for e in events if e.kind == "budget_infeasible"]
        assert len(infeasible) == result.infeasible_events > 0
        first = infeasible[0]
        assert first.subtree == "cluster"
        assert first.cap_w == pytest.approx(spec.budget_w)
        assert first.floor_w == pytest.approx(spec.floor_w * spec.nodes)
        assert first.live_nodes == spec.nodes
        # The clamp holds the fleet to its budget instead of the floors.
        for _, watts in result.power_series:
            assert watts <= spec.budget_w + 1e-6
