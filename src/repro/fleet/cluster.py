"""Churn-tolerant hierarchical fleet coordinator.

The one answer to the paper's PM situation (i), many machines sharing
one power supply: one coordinator, a
:class:`~repro.fleet.hierarchy.BudgetTree` over racks / chassis /
nodes, and a :class:`~repro.fleet.store.NodeStore` holding the whole
fleet in NumPy arrays so 10k nodes tick in milliseconds.

Reallocation is **event-driven**.  Nodes report demand only when it
moves outside a deadband; crashes, restarts, finishes, outages and
partition transitions mark their subtree dirty, and each tick the tree
re-divides caps for the dirty subtrees only (plus a low-frequency full
refresh as a safety sweep).  Failure semantics are first-class:

* a node that stops reporting is **held** at its last demand, then
  **decayed** toward the floor, then accounted **dark** at the floor --
  a stale estimate is never trusted forever;
* a whole-rack outage shifts the rack's share to its siblings within a
  single cluster-level event, and the rack rejoins at floors;
* the oversubscription guard **clamps** (proportionally, surfacing
  :class:`~repro.telemetry.bus.BudgetInfeasible`) when floors exceed a
  subtree's cap -- the tree never raises mid-run;
* a partitioned (unreachable-but-running) subtree is frozen at its
  last-granted caps, then shed by a safety margin after a grace
  period; every such tick counts in ``degraded_ticks``.

Budget safety is by construction: grant *raises* land one tick late
while *cuts* apply immediately, so the fleet never double-spends a
watt in transition and the budget-violation fraction stays bounded
through arbitrary churn -- including a coordinator SIGKILL, because
checkpoints capture every array and RNG stream for bit-identical
resume (see ``repro-power fleet-sim`` and the fleet chaos harness).
"""

from __future__ import annotations

import json
import math
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.errors import CheckpointError, ExperimentError
from repro.fleet.budget import (
    BudgetAllocator,
    DemandProportional,
    EqualShare,
    MIN_GRANT_W,
)
from repro.fleet.hierarchy import BudgetTree, Topology
from repro.fleet.scenario import FleetScenario, ScenarioEngine
from repro.fleet.store import NodeState, NodeStore
from repro.ioutils import atomic_write_bytes, atomic_write_text
from repro.telemetry.bus import (
    BudgetInfeasible,
    FaultRecovered,
    NodeCrashed,
    NodeRestarted,
    PartitionDegraded,
    SubtreeOutage,
    SubtreeReallocated,
)
from repro.telemetry.recorder import TelemetryRecorder

_ALLOCATORS = {
    "demand": DemandProportional,
    "equal": EqualShare,
}

#: Checkpoint manifest format (bump on layout changes).
CHECKPOINT_FORMAT = "fleet-checkpoint-v1"
_MANIFEST = "manifest.json"
_STATE = "state.pkl"


def make_allocator(name: str) -> BudgetAllocator:
    try:
        return _ALLOCATORS[name]()
    except KeyError:
        raise ExperimentError(
            f"unknown allocator {name!r}; expected one of "
            f"{sorted(_ALLOCATORS)}"
        ) from None


@dataclass(frozen=True)
class FleetSpec:
    """Everything needed to (re)build one hierarchical fleet run."""

    nodes: int = 1024
    #: Cluster budget is per-node x nodes (so specs scale by count).
    budget_per_node_w: float = 11.0
    seed: int = 0
    scenario: FleetScenario = field(default_factory=FleetScenario)
    allocator: str = "demand"
    leaf_policy: str = "demand"
    floor_w: float = MIN_GRANT_W
    #: Burst allowance added to each reported demand before allocating.
    demand_headroom_w: float = 0.5
    # Stale-demand handling (coordinator side).
    stale_hold_s: float = 5.0
    stale_decay_s: float = 15.0
    dark_after_s: float = 45.0
    # Partition-degraded handling.
    partition_margin: float = 0.10
    partition_grace_s: float = 5.0
    #: Demand reports outside this relative band trigger an event.
    deadband_frac: float = 0.05
    #: Full-tree refresh period (safety sweep), in ticks; 0 disables.
    refresh_period_ticks: int = 60
    #: Durable checkpoint every N ticks; 0 disables.
    checkpoint_interval_ticks: int = 0

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ExperimentError("fleet needs at least one node")
        if self.budget_per_node_w <= 0:
            raise ExperimentError("per-node budget must be positive")
        if self.demand_headroom_w < 0:
            raise ExperimentError("demand headroom must be >= 0")
        if not 0 <= self.partition_margin < 1:
            raise ExperimentError("partition margin must be in [0, 1)")
        if self.allocator not in _ALLOCATORS:
            raise ExperimentError(
                f"unknown allocator {self.allocator!r}; expected one of "
                f"{sorted(_ALLOCATORS)}"
            )

    @property
    def budget_w(self) -> float:
        return self.nodes * self.budget_per_node_w

    def to_dict(self) -> dict:
        data = {
            k: getattr(self, k)
            for k in self.__dataclass_fields__
            if k != "scenario"
        }
        data["scenario"] = self.scenario.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "FleetSpec":
        payload = dict(data)
        payload["scenario"] = FleetScenario.from_dict(payload["scenario"])
        return cls(**payload)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FleetSpec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class NodeResult:
    """Per-node outcome of a fleet run."""

    name: str
    workload: str
    #: Seconds the node ran: not crashed, finished or in a rack outage.
    duration_s: float
    energy_j: float
    #: The power cap applied to the node at the end of the run.
    final_limit_w: float
    #: Crashes this node suffered during the run.
    crashes: int = 0


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of one hierarchical fleet run."""

    total_budget_w: float
    nodes: Mapping[str, NodeResult]
    #: (time, total measured fleet power) per tick.
    power_series: tuple[tuple[float, float], ...]
    makespan_s: float
    #: True when the coordinator spent part of the run in
    #: partition-degraded mode.
    degraded: bool = False
    #: Ticks spent operating degraded: unreachable subtrees frozen at
    #: last-granted caps minus the safety margin.
    degraded_ticks: int = 0
    n_nodes: int = 0
    ticks: int = 0
    tick_s: float = 1.0
    #: Event-driven passes that actually touched the tree.
    reallocations: int = 0
    #: Interior/leaf levels re-divided across all passes.
    subtree_reallocations: int = 0
    crashes: int = 0
    restarts: int = 0
    finishes: int = 0
    stale_episodes: int = 0
    infeasible_events: int = 0
    outage_ticks: int = 0
    realloc_latency_mean_s: float = 0.0
    realloc_latency_p99_s: float = 0.0
    realloc_latency_max_s: float = 0.0
    wall_s: float = 0.0
    nodes_x_ticks_per_s: float = 0.0
    #: Drawn energy over uncapped-wanted energy (capping cost).
    demand_satisfaction: float = 1.0

    @property
    def mean_fleet_power_w(self) -> float:
        if not self.power_series:
            return 0.0
        return sum(w for _, w in self.power_series) / len(self.power_series)

    def budget_violation_fraction(self, window: int = 10) -> float:
        """Fraction of sliding ``window``-tick windows whose mean fleet
        power exceeds the budget.

        A tick is ``scenario.tick_s`` long (1 s by default), so the
        default window spans 10 s of simulated time.
        """
        values = [w for _, w in self.power_series]
        if len(values) < window:
            return 0.0
        over = 0
        count = 0
        acc = sum(values[:window])
        for i in range(window, len(values) + 1):
            count += 1
            if acc / window > self.total_budget_w + 1e-9:
                over += 1
            if i < len(values):
                acc += values[i] - values[i - window]
        return over / count


class HierarchicalFleetController:
    """Event-driven coordinator for one :class:`FleetSpec`.

    All randomness flows from ``spec.seed`` through named substreams,
    and every mutable array / RNG is captured by checkpoints, so a
    killed-and-resumed run is bit-identical to an uninterrupted one.
    """

    def __init__(
        self,
        spec: FleetSpec,
        telemetry: TelemetryRecorder | None = None,
        checkpoint_dir: str | Path | None = None,
    ):
        self.spec = spec
        self._tel = telemetry
        self._checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.topology = Topology.for_nodes(spec.nodes)
        self.engine = ScenarioEngine(
            spec.scenario, spec.nodes, seed=spec.seed
        )
        self.store = NodeStore(self.topology, spec.floor_w)
        self.tree = BudgetTree(
            self.topology,
            spec.budget_w,
            make_allocator(spec.allocator),
            floor_w=spec.floor_w,
            leaf_policy=spec.leaf_policy,
        )
        # Independent named RNG substreams (each checkpointed).
        self._rng_churn = np.random.default_rng([spec.seed, 1])
        self._rng_loss = np.random.default_rng([spec.seed, 2])
        self._rng_noise = np.random.default_rng([spec.seed, 3])
        rng_events = np.random.default_rng([spec.seed, 4])

        sc = spec.scenario
        # Scheduled finishes: finish_frac of the fleet retires at
        # uniform ticks through the run (inf = never finishes).
        self._finish_tick = np.full(spec.nodes, np.inf)
        n_finish = int(round(sc.finish_frac * spec.nodes))
        if n_finish:
            who = rng_events.choice(spec.nodes, size=n_finish,
                                    replace=False)
            self._finish_tick[who] = rng_events.integers(
                1, max(2, sc.ticks), size=n_finish
            )
        # One rack suffers a power outage, a *different* rack a
        # coordinator-side partition (only with >= 2 racks).
        racks = self.topology.racks
        self._outage_rack = int(rng_events.integers(0, racks))
        self._partition_rack = (
            int((self._outage_rack + 1 + rng_events.integers(0, racks - 1))
                % racks)
            if racks > 1 else -1
        )
        self._outage_window = sc.window_ticks(
            sc.rack_outage_at_frac, sc.rack_outage_duration_frac)
        self._partition_window = (
            sc.window_ticks(sc.partition_at_frac,
                            sc.partition_duration_frac)
            if self._partition_rack >= 0 else (-1, -1)
        )

        # Mutable run state (all of it checkpointed).
        self.tick = 0
        self._outage_active = False
        self._partition_active = False
        self._partition_since_s = 0.0
        self._partition_shed = False
        self._frozen_reserve_w = 0.0
        self._pending_redistributions = 0
        self._power_series: list[tuple[float, float]] = []
        self._realloc_latencies: list[float] = []
        self._counters = {
            "reallocations": 0,
            "subtree_reallocations": 0,
            "crashes": 0,
            "restarts": 0,
            "finishes": 0,
            "stale_episodes": 0,
            "infeasible_events": 0,
            "outage_ticks": 0,
            "degraded_ticks": 0,
        }
        self._sum_draw_j = 0.0
        self._sum_wanted_j = 0.0
        self._initialized = False

    # -- helpers ---------------------------------------------------------------

    @property
    def _instrumented(self) -> bool:
        return self._tel is not None and self._tel.enabled

    def _emit(self, event) -> None:
        if self._instrumented:
            self._tel.emit(event)

    def _outage_nodes(self) -> slice:
        return self.topology.rack_node_slice(self._outage_rack)

    def _partition_nodes(self) -> slice:
        return self.topology.rack_node_slice(self._partition_rack)

    def _reachable_mask(self) -> np.ndarray:
        """Nodes whose telemetry can reach the coordinator right now."""
        mask = np.ones(self.spec.nodes, dtype=bool)
        if self._outage_active:
            mask[self._outage_nodes()] = False
        if self._partition_active:
            mask[self._partition_nodes()] = False
        return mask

    # -- the per-tick pipeline -------------------------------------------------

    def _initial_allocation(self) -> None:
        """Tick-0 bring-up: everyone reports, full tree allocation."""
        store, now = self.store, 0.0
        store.true_demand_w[:] = self.engine.demands(0)
        store.reported_demand_w[:] = store.true_demand_w
        store.last_report_s[:] = now
        self._run_reallocation(now, reason="initial", full=True)
        # Bring-up is the one moment raises apply immediately: nothing
        # was drawing yet, so there is no transition to double-spend.
        store.applied_w[:] = store.grant_w
        self._initialized = True

    def _apply_pending_raises(self) -> None:
        """Grant raises land one tick late; cuts applied immediately."""
        self.store.applied_w[:] = self.store.grant_w

    def _advance_demand(self, tick: int) -> None:
        self.store.true_demand_w[:] = self.engine.demands(tick)

    def _churn(self, tick: int, now: float,
               dirty_chassis: set) -> None:
        store, sc, topo = self.store, self.spec.scenario, self.topology
        states = store.state
        outage = np.zeros(self.spec.nodes, dtype=bool)
        if self._outage_active:
            outage[self._outage_nodes()] = True

        # Crashes: per-node hazard draw over running, non-outage nodes.
        eligible = (states <= int(NodeState.DARK)) & ~outage
        p = sc.crash_rate_per_node_s * sc.tick_s
        draws = self._rng_churn.random(self.spec.nodes)
        crashed = eligible & (draws < p)
        for node in np.flatnonzero(crashed):
            delay = (sc.restart_delay_s
                     + sc.restart_jitter_s * self._rng_churn.random())
            store.state[node] = int(NodeState.CRASHED)
            store.crashes[node] += 1
            store.restart_at_s[node] = now + delay
            store.grant_w[node] = 0.0
            store.applied_w[node] = 0.0
            dirty_chassis.add(int(topo.chassis_of_node[node]))
            self._counters["crashes"] += 1
            self._pending_redistributions += 1
            self._emit(NodeCrashed(
                time_s=now, node=topo.node_name(int(node)),
                restart_at_s=now + delay,
            ))

        # Restarts: crashed nodes whose delay expired (and whose rack
        # has power) rejoin conservatively at the floor.
        due = ((states == int(NodeState.CRASHED))
               & (store.restart_at_s <= now) & ~outage)
        for node in np.flatnonzero(due):
            downtime = now - (store.restart_at_s[node]
                              - sc.restart_delay_s)
            store.state[node] = int(NodeState.LIVE)
            store.restart_at_s[node] = np.inf
            store.reported_demand_w[node] = store.floor_w
            store.last_report_s[node] = now
            store.grant_w[node] = store.floor_w
            store.applied_w[node] = store.floor_w
            dirty_chassis.add(int(topo.chassis_of_node[node]))
            self._counters["restarts"] += 1
            self._emit(NodeRestarted(
                time_s=now, node=topo.node_name(int(node)),
                downtime_s=max(0.0, float(downtime)),
            ))
            self._emit(FaultRecovered(
                time_s=now, subsystem="fleet", action="restart"))

        # Scheduled finishes: retired for good, share shifts away.
        finishing = ((states <= int(NodeState.DARK))
                     & (self._finish_tick <= tick))
        for node in np.flatnonzero(finishing):
            store.state[node] = int(NodeState.FINISHED)
            store.grant_w[node] = 0.0
            store.applied_w[node] = 0.0
            dirty_chassis.add(int(topo.chassis_of_node[node]))
            self._counters["finishes"] += 1

    def _outage_transitions(self, tick: int, now: float) -> bool:
        """Enter/exit the scheduled rack outage; True = cluster dirty."""
        start, end = self._outage_window
        store = self.store
        if not self._outage_active and start <= tick < end:
            self._outage_active = True
            sl = self._outage_nodes()
            store.grant_w[sl] = 0.0
            store.applied_w[sl] = 0.0
            self._emit(SubtreeOutage(
                time_s=now,
                subtree=self.topology.rack_name(self._outage_rack),
                nodes=sl.stop - sl.start, down=True,
            ))
            return True
        if self._outage_active and tick >= end:
            self._outage_active = False
            sl = self._outage_nodes()
            # Power restored: running nodes reboot and rejoin at the
            # floor; nodes that crashed before the outage stay crashed.
            running = store.state[sl] <= int(NodeState.DARK)
            idx = np.flatnonzero(running) + sl.start
            store.state[idx] = int(NodeState.LIVE)
            store.reported_demand_w[idx] = store.floor_w
            store.last_report_s[idx] = now
            store.grant_w[idx] = store.floor_w
            store.applied_w[idx] = store.floor_w
            self._emit(SubtreeOutage(
                time_s=now,
                subtree=self.topology.rack_name(self._outage_rack),
                nodes=sl.stop - sl.start, down=False,
            ))
            self._emit(FaultRecovered(
                time_s=now, subsystem="fleet", action="redistribute"))
            return True
        return False

    def _partition_transitions(self, tick: int, now: float) -> bool:
        """Enter/exit/degrade the partition; True = cluster dirty."""
        if self._partition_rack < 0:
            return False
        start, end = self._partition_window
        spec, store = self.spec, self.store
        dirty = False
        if not self._partition_active and start <= tick < end:
            # Unreachable but still running: freeze the subtree at its
            # last-granted cap, reserved in full during the grace
            # period (the subtree may legitimately draw up to it).
            self._partition_active = True
            self._partition_since_s = now
            self._partition_shed = False
            self._frozen_reserve_w = float(
                self.tree.rack_cap_w[self._partition_rack])
            self._emit(PartitionDegraded(
                time_s=now,
                subtree=self.topology.rack_name(self._partition_rack),
                frozen_cap_w=self._frozen_reserve_w, entered=True,
            ))
            dirty = True
        if (self._partition_active and not self._partition_shed
                and now - self._partition_since_s
                >= spec.partition_grace_s):
            # Grace expired: both sides shed by the safety margin --
            # the nodes fail-safe to reduced local caps, the
            # coordinator frees the margin for reachable subtrees.
            self._partition_shed = True
            keep = 1.0 - spec.partition_margin
            sl = self._partition_nodes()
            store.grant_w[sl] *= keep
            store.applied_w[sl] = np.minimum(
                store.applied_w[sl], store.grant_w[sl])
            csl = self.topology.rack_chassis_slice(self._partition_rack)
            self.tree.chassis_cap_w[csl] *= keep
            self.tree.rack_cap_w[self._partition_rack] *= keep
            self._frozen_reserve_w *= keep
            self._emit(PartitionDegraded(
                time_s=now,
                subtree=self.topology.rack_name(self._partition_rack),
                frozen_cap_w=self._frozen_reserve_w, entered=True,
            ))
            dirty = True
        if self._partition_active and tick >= end:
            self._partition_active = False
            self._partition_shed = False
            self._frozen_reserve_w = 0.0
            sl = self._partition_nodes()
            # Telemetry heals: the subtree reports fresh demand.
            running = store.state[sl] <= int(NodeState.DARK)
            idx = np.flatnonzero(running) + sl.start
            store.reported_demand_w[idx] = store.true_demand_w[idx]
            store.last_report_s[idx] = now
            store.state[idx] = int(NodeState.LIVE)
            self._emit(PartitionDegraded(
                time_s=now,
                subtree=self.topology.rack_name(self._partition_rack),
                frozen_cap_w=0.0, entered=False,
            ))
            dirty = True
        if self._partition_active:
            self._counters["degraded_ticks"] += 1
        return dirty

    def _telemetry_and_staleness(self, now: float,
                                 dirty_chassis: set) -> None:
        spec, sc = self.spec, self.spec.scenario
        store, topo = self.store, self.topology
        reachable = self._reachable_mask()
        running = store.state <= int(NodeState.DARK)

        # New telemetry-loss episodes.
        p = sc.telemetry_loss_rate_per_node_s * sc.tick_s
        hit = (running & reachable
               & (self._rng_loss.random(spec.nodes) < p))
        store.stale_until_s[hit] = now + sc.telemetry_loss_duration_s

        reporting = running & reachable & (store.stale_until_s <= now)
        silent_for = now - store.last_report_s

        # Hold -> decay -> dark for silent nodes.
        stale = running & ~reporting & (silent_for > spec.stale_hold_s)
        newly_stale = stale & (store.state == int(NodeState.LIVE))
        store.state[newly_stale] = int(NodeState.STALE)
        self._counters["stale_episodes"] += int(newly_stale.sum())
        decaying = store.state == int(NodeState.STALE)
        if decaying.any():
            decay = math.exp(-sc.tick_s / spec.stale_decay_s)
            store.reported_demand_w[decaying] = np.maximum(
                store.reported_demand_w[decaying] * decay, store.floor_w
            )
        newly_dark = (decaying & (silent_for > spec.dark_after_s))
        if newly_dark.any():
            store.state[newly_dark] = int(NodeState.DARK)
            store.reported_demand_w[newly_dark] = store.floor_w
            for node in np.flatnonzero(newly_dark):
                dirty_chassis.add(int(topo.chassis_of_node[node]))

        # Fresh reports: recover stale/dark nodes, and push a
        # demand-delta event only when outside the deadband.
        recovered = reporting & (store.state != int(NodeState.LIVE))
        store.state[recovered] = int(NodeState.LIVE)
        band = spec.deadband_frac * np.maximum(
            store.reported_demand_w, store.floor_w)
        moved = reporting & (
            np.abs(store.true_demand_w - store.reported_demand_w) > band
        )
        changed = moved | recovered
        store.reported_demand_w[changed] = store.true_demand_w[changed]
        store.last_report_s[reporting] = now
        for chassis in np.unique(
                topo.chassis_of_node[changed]) if changed.any() else ():
            dirty_chassis.add(int(chassis))

    def _effective_demand(self) -> tuple[np.ndarray, np.ndarray]:
        """(effective demand, active mask) as the allocator sees them."""
        store, spec = self.store, self.spec
        active = store.accountable_mask()
        if self._outage_active:
            active[self._outage_nodes()] = False
        demand = store.reported_demand_w + spec.demand_headroom_w
        dark = store.state == int(NodeState.DARK)
        demand[dark] = store.floor_w
        demand[~active] = 0.0
        return demand, active

    def _run_reallocation(self, now: float, reason: str,
                          full: bool = False,
                          dirty_chassis: set | None = None,
                          dirty_cluster: bool = False) -> None:
        demand, active = self._effective_demand()
        frozen = (
            {self._partition_rack: self._frozen_reserve_w}
            if self._partition_active else None
        )
        dirty_chassis = set(dirty_chassis or ())
        if full:
            dirty_cluster = True
            dirty_chassis.update(range(self.topology.n_chassis))
        elif dirty_chassis and not dirty_cluster:
            # A chassis-level event still changes its rack's aggregate
            # demand, so re-divide the whole tree top-down: shares
            # shift between racks in the same event.
            dirty_cluster = True
        if not dirty_cluster and not dirty_chassis:
            return
        started = time.perf_counter()
        stats = self.tree.reallocate(
            demand, active, self.store.grant_w,
            dirty_chassis=dirty_chassis,
            dirty_cluster=dirty_cluster,
            frozen_racks=frozen,
        )
        elapsed = time.perf_counter() - started
        if not stats.touched:
            return
        # Cuts bite immediately; raises wait for the next tick.
        self.store.applied_w[:] = np.minimum(
            self.store.applied_w, self.store.grant_w)
        self._realloc_latencies.append(elapsed)
        self._counters["reallocations"] += 1
        self._counters["subtree_reallocations"] += (
            int(stats.cluster) + stats.racks + stats.chassis)
        self._counters["infeasible_events"] += len(stats.infeasible)
        if self._instrumented:
            self._emit(SubtreeReallocated(
                time_s=now, subtree="cluster",
                cap_w=self.tree.budget_w,
                children=int(stats.cluster) + stats.racks + stats.chassis,
                reason=reason,
            ))
            for subtree, cap_w, floor_w, live in stats.infeasible:
                self._emit(BudgetInfeasible(
                    time_s=now, subtree=subtree, cap_w=cap_w,
                    floor_w=floor_w, live_nodes=live,
                ))
        while self._pending_redistributions > 0:
            self._pending_redistributions -= 1
            self._emit(FaultRecovered(
                time_s=now, subsystem="fleet", action="redistribute"))

    def _measure_draw(self, now: float) -> float:
        store, sc = self.store, self.spec.scenario
        running = store.running_mask()
        if self._outage_active:
            running = running.copy()
            running[self._outage_nodes()] = False
            self._counters["outage_ticks"] += 1
        draw = np.minimum(store.true_demand_w, store.applied_w)
        noise = 1.0 + sc.noise_sigma * self._rng_noise.standard_normal(
            self.spec.nodes)
        draw = np.maximum(draw * noise, 0.0)
        draw[~running] = 0.0
        store.draw_w[:] = draw
        store.energy_j += draw * sc.tick_s
        store.up_ticks[running] += 1
        self._sum_draw_j += float(draw.sum()) * sc.tick_s
        self._sum_wanted_j += float(
            store.true_demand_w[running].sum()) * sc.tick_s
        return float(draw.sum())

    def step(self) -> None:
        """Advance the fleet by one tick."""
        if not self._initialized:
            self._initial_allocation()
        spec, sc = self.spec, self.spec.scenario
        tick = self.tick
        now = tick * sc.tick_s

        self._apply_pending_raises()
        if (spec.checkpoint_interval_ticks > 0
                and self._checkpoint_dir is not None
                and tick > 0
                and tick % spec.checkpoint_interval_ticks == 0):
            self.checkpoint()

        self._advance_demand(tick)
        dirty_chassis: set[int] = set()
        self._churn(tick, now, dirty_chassis)
        dirty_cluster = self._outage_transitions(tick, now)
        dirty_cluster |= self._partition_transitions(tick, now)
        self._telemetry_and_staleness(now, dirty_chassis)

        refresh = (spec.refresh_period_ticks > 0
                   and tick > 0
                   and tick % spec.refresh_period_ticks == 0)
        if refresh:
            reason = "refresh"
        elif dirty_cluster:
            reason = ("outage" if self._outage_active
                      or not self._partition_active else "partition")
        else:
            reason = "event"
        self._run_reallocation(
            now, reason=reason, full=refresh,
            dirty_chassis=dirty_chassis, dirty_cluster=dirty_cluster,
        )

        fleet_w = self._measure_draw(now)
        self._power_series.append((now, fleet_w))
        self.tick += 1

    def run(self) -> ClusterResult:
        """Run the scenario to completion (or from a resumed tick)."""
        started = time.perf_counter()
        start_tick = self.tick
        while self.tick < self.spec.scenario.ticks:
            self.step()
        wall = time.perf_counter() - started
        if (self._checkpoint_dir is not None
                and self.spec.checkpoint_interval_ticks > 0):
            self.checkpoint()
        return self._result(wall, self.tick - start_tick)

    # -- results ---------------------------------------------------------------

    def _result(self, wall_s: float, ticks_run: int) -> ClusterResult:
        spec, sc, store = self.spec, self.spec.scenario, self.store
        nodes = {}
        for i in range(spec.nodes):
            name = self.topology.node_name(i)
            nodes[name] = NodeResult(
                name=name,
                workload=self.engine.template_name(i),
                duration_s=float(store.up_ticks[i]) * sc.tick_s,
                energy_j=float(store.energy_j[i]),
                final_limit_w=float(store.applied_w[i]),
                crashes=int(store.crashes[i]),
            )
        lat = np.array(self._realloc_latencies or [0.0])
        degraded_ticks = self._counters["degraded_ticks"]
        return ClusterResult(
            total_budget_w=spec.budget_w,
            nodes=nodes,
            power_series=tuple(self._power_series),
            makespan_s=self.tick * sc.tick_s,
            degraded=degraded_ticks > 0,
            degraded_ticks=degraded_ticks,
            n_nodes=spec.nodes,
            ticks=self.tick,
            tick_s=sc.tick_s,
            reallocations=self._counters["reallocations"],
            subtree_reallocations=self._counters["subtree_reallocations"],
            crashes=self._counters["crashes"],
            restarts=self._counters["restarts"],
            finishes=self._counters["finishes"],
            stale_episodes=self._counters["stale_episodes"],
            infeasible_events=self._counters["infeasible_events"],
            outage_ticks=self._counters["outage_ticks"],
            realloc_latency_mean_s=float(lat.mean()),
            realloc_latency_p99_s=float(np.percentile(lat, 99)),
            realloc_latency_max_s=float(lat.max()),
            wall_s=wall_s,
            nodes_x_ticks_per_s=(
                spec.nodes * ticks_run / wall_s if wall_s > 0 else 0.0
            ),
            demand_satisfaction=(
                self._sum_draw_j / self._sum_wanted_j
                if self._sum_wanted_j > 0 else 1.0
            ),
        )

    # -- checkpointing ---------------------------------------------------------

    def checkpoint(self) -> Path:
        """Durably capture the complete run state (atomic, crash-safe).

        ``state.pkl`` lands first, then the manifest referencing it --
        a reader that sees the manifest is guaranteed a complete state
        file, so a SIGKILL between the two writes loses at most one
        checkpoint interval, never corrupts one.
        """
        if self._checkpoint_dir is None:
            raise CheckpointError("controller has no checkpoint directory")
        self._checkpoint_dir.mkdir(parents=True, exist_ok=True)
        state = {
            "tick": self.tick,
            "store": self.store.state_dict(),
            "tree": self.tree.state_dict(),
            "rng_churn": self._rng_churn,
            "rng_loss": self._rng_loss,
            "rng_noise": self._rng_noise,
            "finish_tick": self._finish_tick,
            "outage_rack": self._outage_rack,
            "partition_rack": self._partition_rack,
            "outage_active": self._outage_active,
            "partition_active": self._partition_active,
            "partition_since_s": self._partition_since_s,
            "partition_shed": self._partition_shed,
            "frozen_reserve_w": self._frozen_reserve_w,
            "pending_redistributions": self._pending_redistributions,
            "power_series": self._power_series,
            "realloc_latencies": self._realloc_latencies,
            "counters": self._counters,
            "sum_draw_j": self._sum_draw_j,
            "sum_wanted_j": self._sum_wanted_j,
            "initialized": self._initialized,
        }
        atomic_write_bytes(
            self._checkpoint_dir / _STATE,
            pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL),
        )
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "spec": self.spec.to_dict(),
            "tick": self.tick,
            "state_file": _STATE,
        }
        atomic_write_text(
            self._checkpoint_dir / _MANIFEST,
            json.dumps(manifest, indent=2, sort_keys=True),
        )
        return self._checkpoint_dir / _MANIFEST

    @classmethod
    def resume(
        cls,
        checkpoint_dir: str | Path,
        telemetry: TelemetryRecorder | None = None,
    ) -> "HierarchicalFleetController":
        """Rebuild a controller bit-identical to the checkpointed one."""
        checkpoint_dir = Path(checkpoint_dir)
        manifest_path = checkpoint_dir / _MANIFEST
        if not manifest_path.exists():
            raise CheckpointError(
                f"no fleet checkpoint manifest at {manifest_path}")
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"unsupported checkpoint format "
                f"{manifest.get('format')!r} (expected "
                f"{CHECKPOINT_FORMAT!r})"
            )
        spec = FleetSpec.from_dict(manifest["spec"])
        state_path = checkpoint_dir / manifest["state_file"]
        try:
            state = pickle.loads(state_path.read_bytes())
        except Exception as exc:
            raise CheckpointError(
                f"unreadable fleet checkpoint state at {state_path}: "
                f"{exc}"
            ) from exc
        ctl = cls(spec, telemetry=telemetry,
                  checkpoint_dir=checkpoint_dir)
        ctl.tick = state["tick"]
        ctl.store.load_state(state["store"])
        ctl.tree.load_state(state["tree"])
        ctl._rng_churn = state["rng_churn"]
        ctl._rng_loss = state["rng_loss"]
        ctl._rng_noise = state["rng_noise"]
        ctl._finish_tick = state["finish_tick"]
        ctl._outage_rack = state["outage_rack"]
        ctl._partition_rack = state["partition_rack"]
        ctl._outage_active = state["outage_active"]
        ctl._partition_active = state["partition_active"]
        ctl._partition_since_s = state["partition_since_s"]
        ctl._partition_shed = state["partition_shed"]
        ctl._frozen_reserve_w = state["frozen_reserve_w"]
        ctl._pending_redistributions = state["pending_redistributions"]
        ctl._power_series = list(state["power_series"])
        ctl._realloc_latencies = list(state["realloc_latencies"])
        ctl._counters = dict(state["counters"])
        ctl._sum_draw_j = state["sum_draw_j"]
        ctl._sum_wanted_j = state["sum_wanted_j"]
        ctl._initialized = state["initialized"]
        return ctl


def fleet_result_digest(result: ClusterResult) -> dict:
    """A float-exact, wall-clock-free digest for chaos comparisons.

    Two runs of the same spec -- one uninterrupted, one SIGKILLed and
    resumed -- must produce byte-identical digests; wall-time-derived
    metrics (latency, throughput) are deliberately excluded.
    """
    import hashlib

    power = np.array([w for _, w in result.power_series])
    energy = np.array(sorted(
        (name, node.energy_j) for name, node in result.nodes.items()
    ), dtype=object)
    energy_w = np.array([e for _, e in energy], dtype=np.float64)
    return {
        "n_nodes": result.n_nodes,
        "ticks": result.ticks,
        "total_budget_w": result.total_budget_w,
        "power_sha256": hashlib.sha256(power.tobytes()).hexdigest(),
        "energy_sha256": hashlib.sha256(energy_w.tobytes()).hexdigest(),
        "mean_fleet_power_w": result.mean_fleet_power_w,
        "violation_fraction": result.budget_violation_fraction(),
        "crashes": result.crashes,
        "restarts": result.restarts,
        "finishes": result.finishes,
        "stale_episodes": result.stale_episodes,
        "infeasible_events": result.infeasible_events,
        "outage_ticks": result.outage_ticks,
        "degraded_ticks": result.degraded_ticks,
        "reallocations": result.reallocations,
        "subtree_reallocations": result.subtree_reallocations,
        "demand_satisfaction": result.demand_satisfaction,
    }


def run_fleet(
    spec: FleetSpec,
    telemetry: TelemetryRecorder | None = None,
    checkpoint_dir: str | Path | None = None,
) -> ClusterResult:
    """Convenience one-shot: build, run, return the result."""
    return HierarchicalFleetController(
        spec, telemetry=telemetry, checkpoint_dir=checkpoint_dir
    ).run()
