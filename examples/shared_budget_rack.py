#!/usr/bin/env python3
"""Scenario: four sockets, one 40 W supply rail.

The paper's PM motivation (i): "controlling multiple components with
shared power supply/cooling resources".  Four nodes with different
appetites (batch inference, interactive editing, an ETL scan and a web
tier) share one 40 W budget.  The fleet coordinator re-divides it
whenever a node's reported demand moves, and caps each node at its
share.

Two policies divide the budget.  Equal share hands every live node the
same cap whether it can use it or not; demand-proportional
water-filling sizes each cap to the node's reported demand.  Under
both, one node finishes part-way through and its share moves to the
three survivors (its final cap reads 0 W).
"""

from repro.fleet import FleetScenario, FleetSpec, run_fleet

NODES = 4
BUDGET_PER_NODE_W = 10.0
SCENARIO = FleetScenario(
    ticks=120,
    mix=(
        ("infer-batch", 1.0),
        ("desktop-editing", 1.0),
        ("etl-scan-heavy", 1.0),
        ("web-flash-crowd", 1.0),
    ),
    # One node of the four finishes during the run; none crashes.
    finish_frac=0.25,
    crash_rate_per_node_s=0.0,
    # Four nodes fill a single rack: an outage would darken them all.
    rack_outage_at_frac=2.0,
)


def main() -> None:
    print(
        f"shared budget: {NODES * BUDGET_PER_NODE_W:.0f} W across "
        f"{NODES} nodes, {SCENARIO.ticks} ticks of {SCENARIO.tick_s:g} s\n"
    )
    for policy in ("equal", "demand"):
        spec = FleetSpec(
            nodes=NODES,
            budget_per_node_w=BUDGET_PER_NODE_W,
            # Seed 24 gives each node a different workload.
            seed=24,
            scenario=SCENARIO,
            allocator=policy,
            leaf_policy=policy,
        )
        result = run_fleet(spec)
        print(f"{policy}:")
        for node, outcome in sorted(result.nodes.items()):
            print(
                f"  {node} ({outcome.workload:15}) ran "
                f"{outcome.duration_s:5.0f} s, drew "
                f"{outcome.energy_j:6.0f} J  "
                f"(final cap {outcome.final_limit_w:5.2f} W)"
            )
        print(
            f"  fleet: demand met {result.demand_satisfaction:.1%}, "
            f"mean power {result.mean_fleet_power_w:.1f} W, "
            f"budget violations "
            f"{result.budget_violation_fraction():.1%}\n"
        )


if __name__ == "__main__":
    main()
