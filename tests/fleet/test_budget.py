"""Tests for the fleet budget allocation policies."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GovernorError
from repro.fleet import DemandProportional, EqualShare, NodeDemand
from repro.fleet.budget import MIN_GRANT_W


class TestEqualShare:
    def test_splits_evenly_among_active(self):
        grants = EqualShare().allocate(
            40.0,
            [NodeDemand("a", 20.0), NodeDemand("b", 5.0)],
        )
        assert grants == {"a": 20.0, "b": 20.0}

    def test_inactive_nodes_get_nothing(self):
        grants = EqualShare().allocate(
            40.0,
            [NodeDemand("a", 20.0), NodeDemand("b", 0.0, active=False)],
        )
        assert grants["b"] == 0.0
        assert grants["a"] == 40.0

    def test_validation(self):
        with pytest.raises(GovernorError):
            EqualShare().allocate(0.0, [NodeDemand("a", 1.0)])
        with pytest.raises(GovernorError):
            EqualShare().allocate(10.0, [])
        with pytest.raises(GovernorError):
            EqualShare().allocate(
                10.0, [NodeDemand("a", 1.0), NodeDemand("a", 2.0)]
            )


class TestDemandProportional:
    def test_satisfies_demands_when_budget_suffices(self):
        grants = DemandProportional().allocate(
            50.0,
            [NodeDemand("hungry", 18.0), NodeDemand("modest", 12.0)],
        )
        assert grants["hungry"] >= 18.0
        assert grants["modest"] >= 12.0

    def test_shifts_toward_demand_under_pressure(self):
        grants = DemandProportional().allocate(
            26.0,
            [NodeDemand("hungry", 18.0), NodeDemand("modest", 10.0)],
        )
        assert grants["hungry"] > grants["modest"]
        assert sum(grants.values()) == pytest.approx(26.0)

    def test_never_grants_above_demand_while_others_starve(self):
        grants = DemandProportional().allocate(
            24.0,
            [NodeDemand("a", 18.0), NodeDemand("b", 18.0),
             NodeDemand("tiny", 5.0)],
        )
        # Under pressure tiny never exceeds its demand, and the hungry
        # nodes receive strictly more (proportional-to-unmet shares).
        assert grants["tiny"] <= 5.0 + 1e-9
        assert grants["a"] > grants["tiny"]
        assert grants["a"] == pytest.approx(grants["b"])

    def test_surplus_spread_as_headroom(self):
        grants = DemandProportional().allocate(
            40.0, [NodeDemand("a", 10.0), NodeDemand("b", 10.0)]
        )
        assert grants["a"] == pytest.approx(20.0)
        assert grants["b"] == pytest.approx(20.0)

    @settings(max_examples=60, deadline=None)
    @given(
        budget=st.floats(10.0, 100.0),
        demands=st.lists(st.floats(0.0, 25.0), min_size=1, max_size=6),
    )
    def test_allocation_invariants(self, budget, demands):
        nodes = [NodeDemand(f"n{i}", d) for i, d in enumerate(demands)]
        grants = DemandProportional().allocate(budget, nodes)
        total = sum(grants.values())
        # Never over budget -- the floors clamp instead of overrunning.
        assert total <= budget + 1e-6
        if grants.infeasible:
            # Only flagged when the floors genuinely do not fit, and
            # then the whole budget is still handed out (equal floors
            # -> equal clamped shares).
            assert budget < MIN_GRANT_W * len(nodes) + 1e-6
            assert total == pytest.approx(budget)
        else:
            # Every active node gets at least the floor.
            for node in nodes:
                assert grants[node.name] >= MIN_GRANT_W - 1e-9


def test_all_nodes_finished_means_zero_demand():
    # Once every child is done the allocator sees only inactive
    # demands and grants nothing.
    for allocator in (EqualShare(), DemandProportional()):
        grants = allocator.allocate(
            30.0,
            [NodeDemand("a", 0.0, active=False),
             NodeDemand("b", 0.0, active=False)],
        )
        assert grants == {"a": 0.0, "b": 0.0}
