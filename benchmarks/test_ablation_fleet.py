"""Ablation: allocation policy across the hierarchical budget tree.

Equal-share provisioning starves power-hungry nodes while memory-bound
neighbours sit on headroom; demand-proportional water-filling (the
Felter-style shift the paper cites for PM situation (i)) moves that
headroom where it buys work done.  The ablation runs the same churny
512-node scenario through both allocator policies at every tree level
-- cluster -> rack, rack -> chassis, and the chassis leaf fill -- and
compares how much of the fleet's uncapped demand each one satisfies
under an identical budget.
"""

from conftest import publish

from repro.analysis.report import TextTable
from repro.fleet import FleetScenario, FleetSpec, run_fleet

NODES = 512
TICKS = 180
BUDGET_PER_NODE_W = 11.0


def run_allocator_pair():
    out = {}
    for label in ("equal", "demand"):
        spec = FleetSpec(
            nodes=NODES,
            budget_per_node_w=BUDGET_PER_NODE_W,
            seed=0,
            scenario=FleetScenario(ticks=TICKS),
            allocator=label,
            leaf_policy=label,
        )
        out[label] = run_fleet(spec)
    return out


def test_ablation_fleet_power_shifting(benchmark, results_dir):
    outcome = benchmark.pedantic(run_allocator_pair, rounds=1,
                                 iterations=1)
    table = TextTable(
        ["allocator", "violations", "demand met", "mean W",
         "reallocs", "crashes"]
    )
    for label, result in outcome.items():
        table.add_row(
            label,
            f"{result.budget_violation_fraction():.2%}",
            f"{result.demand_satisfaction:.1%}",
            f"{result.mean_fleet_power_w:.0f}",
            result.reallocations,
            result.crashes,
        )
    publish(
        results_dir, "ablation_fleet",
        f"Ablation -- hierarchical fleet power shifting "
        f"({NODES} nodes, {BUDGET_PER_NODE_W * NODES:.0f} W budget)\n"
        + table.render(),
    )
    equal = outcome["equal"]
    demand = outcome["demand"]
    # Both respect the shared budget on the 10-tick window.
    assert equal.budget_violation_fraction() <= 0.01
    assert demand.budget_violation_fraction() <= 0.01
    # Identical churn either way (same seed drives the scenario)...
    assert equal.crashes == demand.crashes
    # ...but water-filling turns the same watts into more work done.
    assert demand.demand_satisfaction > equal.demand_satisfaction
