"""Tests for the typed event bus and its subscriber isolation."""

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    ConstraintChanged,
    EventBus,
    PStateTransition,
    RunFinished,
    RunStarted,
    TicksRecorded,
)


def _transition(time_s=0.01):
    return PStateTransition(time_s=time_s, from_mhz=2000.0, to_mhz=1800.0)


class TestEvents:
    def test_events_are_frozen(self):
        event = _transition()
        with pytest.raises(AttributeError):
            event.to_mhz = 600.0

    def test_to_dict_carries_kind_and_fields(self):
        d = _transition().to_dict()
        assert d["kind"] == "transition"
        assert d["from_mhz"] == 2000.0
        assert d["to_mhz"] == 1800.0
        assert d["time_s"] == 0.01

    def test_kinds_are_distinct(self):
        kinds = {
            cls.kind
            for cls in (RunStarted, PStateTransition, TicksRecorded,
                        ConstraintChanged, RunFinished)
        }
        assert len(kinds) == 5


class TestEventBus:
    def test_delivery_in_subscription_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(("a", e.kind)))
        bus.subscribe(lambda e: seen.append(("b", e.kind)))
        bus.publish(_transition())
        assert seen == [("a", "transition"), ("b", "transition")]

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        sub = bus.subscribe(seen.append)
        bus.unsubscribe(sub)
        bus.publish(_transition())
        assert seen == []

    def test_unsubscribe_unknown_raises(self):
        with pytest.raises(TelemetryError):
            EventBus().unsubscribe(lambda e: None)

    def test_duplicate_subscribe_rejected(self):
        bus = EventBus()
        sub = bus.subscribe(lambda e: None)
        with pytest.raises(TelemetryError):
            bus.subscribe(sub)

    def test_bad_subscriber_never_kills_delivery(self):
        bus = EventBus()
        seen = []

        def explode(event):
            raise RuntimeError("exporter disk full")

        bus.subscribe(explode)
        bus.subscribe(seen.append)
        bus.publish(_transition())
        assert len(seen) == 1
        assert len(bus.errors) == 1
        assert bus.errors[0].event_kind == "transition"
        assert "disk full" in bus.errors[0].error

    def test_persistently_broken_subscriber_is_detached(self):
        bus = EventBus(max_subscriber_errors=3)

        def explode(event):
            raise ValueError("nope")

        bus.subscribe(explode)
        for _ in range(5):
            bus.publish(_transition())
        # Detached after 3 strikes: no further error records accumulate.
        assert len(bus.errors) == 3
        assert explode not in bus.subscribers

    def test_healthy_subscriber_survives_neighbour_detachment(self):
        bus = EventBus(max_subscriber_errors=1)
        seen = []
        bus.subscribe(lambda e: (_ for _ in ()).throw(RuntimeError("x")))
        bus.subscribe(seen.append)
        bus.publish(_transition())
        bus.publish(_transition())
        assert len(seen) == 2
        assert len(bus.subscribers) == 1

    def test_validation(self):
        with pytest.raises(TelemetryError):
            EventBus(max_subscriber_errors=0)
        with pytest.raises(TelemetryError):
            EventBus().subscribe("not callable")
