"""Shared-budget fleet coordination (the paper's PM situation (i)).

The paper motivates PerformanceMaximizer with "(i) controlling multiple
components with shared power supply/cooling resources" and cites Felter
et al.'s performance-conserving power shifting (its reference [7]).
This subpackage answers it with one coordinator, built from:

* :mod:`repro.fleet.budget`     -- allocation policies (equal share,
  demand-proportional water-filling) with per-child floors and an
  oversubscription clamp,
* :mod:`repro.fleet.hierarchy`  -- the cluster -> rack -> chassis ->
  node budget tree with event-driven reallocation,
* :mod:`repro.fleet.store`      -- array-backed node state scaling to
  10k nodes,
* :mod:`repro.fleet.scenario`   -- fleet traffic (diurnal, flash
  crowd, churn, outage, partition) priced from the scenario corpus,
* :mod:`repro.fleet.cluster`    -- the churn-tolerant hierarchical
  coordinator with durable checkpoint/resume.
"""

from repro.fleet.budget import (
    BudgetAllocator,
    DemandProportional,
    EqualShare,
    NodeDemand,
)
from repro.fleet.cluster import (
    ClusterResult,
    FleetSpec,
    HierarchicalFleetController,
    NodeResult,
    run_fleet,
)
from repro.fleet.hierarchy import BudgetTree, Topology
from repro.fleet.scenario import FleetScenario, ScenarioEngine
from repro.fleet.store import NodeState, NodeStore

__all__ = [
    "BudgetAllocator",
    "EqualShare",
    "DemandProportional",
    "NodeDemand",
    "NodeResult",
    "Topology",
    "BudgetTree",
    "NodeState",
    "NodeStore",
    "FleetScenario",
    "ScenarioEngine",
    "FleetSpec",
    "ClusterResult",
    "HierarchicalFleetController",
    "run_fleet",
]
