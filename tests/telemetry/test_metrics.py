"""Tests for the metrics registry (counters, gauges, histograms)."""

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry import MetricsRegistry
from repro.telemetry.metrics import (
    Histogram,
    POWER_BUCKETS_W,
    PROJECTION_ERROR_BUCKETS_W,
)


class TestCounter:
    def test_accumulates(self):
        counter = MetricsRegistry().counter("ticks")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_rejects_decrease(self):
        counter = MetricsRegistry().counter("ticks")
        with pytest.raises(TelemetryError):
            counter.inc(-1.0)
        counter.inc(2.0)
        with pytest.raises(TelemetryError):
            counter.set_total(1.0)
        counter.set_total(2.5)
        assert counter.value == 2.5

    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")


class TestGauge:
    def test_set_overwrites(self):
        gauge = MetricsRegistry().gauge("limit_w")
        gauge.set(14.5)
        gauge.set(20.0)
        assert gauge.value == 20.0


class TestHistogram:
    def test_bucket_assignment(self):
        hist = Histogram("h", [1.0, 2.0, 3.0])
        for value in (0.5, 1.0, 1.5, 2.5, 99.0):
            hist.observe(value)
        # <=1, <=2, <=3, overflow
        assert hist.bucket_counts == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.min == 0.5
        assert hist.max == 99.0
        assert hist.mean == pytest.approx((0.5 + 1.0 + 1.5 + 2.5 + 99.0) / 5)

    def test_observe_many_matches_one_at_a_time(self):
        values = (0.5, 1.0, float("nan"), 3.0, 3.5, -2.0)
        one = Histogram("h", [1.0, 2.0, 3.0])
        for value in values:
            one.observe(value)
        many = Histogram("h", [1.0, 2.0, 3.0])
        many.observe_many(values)
        # NaN compares false to every bound, so it lands in overflow.
        assert one.bucket_counts == many.bucket_counts == [3, 0, 1, 2]
        assert (one.count, one.min, one.max) == (many.count, -2.0, 3.5)

    def test_buckets_must_ascend(self):
        with pytest.raises(TelemetryError):
            Histogram("h", [2.0, 1.0])
        with pytest.raises(TelemetryError):
            Histogram("h", [])

    def test_default_bucket_layouts(self):
        assert POWER_BUCKETS_W == tuple(sorted(POWER_BUCKETS_W))
        assert PROJECTION_ERROR_BUCKETS_W[0] < 0 < PROJECTION_ERROR_BUCKETS_W[-1]

    def test_registry_requires_buckets_on_first_use(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError):
            registry.histogram("h")
        created = registry.histogram("h", [1.0])
        assert registry.histogram("h") is created


class TestRegistry:
    def test_type_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TelemetryError):
            registry.gauge("x")
        with pytest.raises(TelemetryError):
            registry.histogram("x", [1.0])

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("ticks").inc(3)
        registry.gauge("limit").set(14.5)
        registry.histogram("power", POWER_BUCKETS_W).observe(12.0)
        snap = registry.snapshot()
        parsed = json.loads(json.dumps(snap))
        assert parsed["counters"]["ticks"] == 3
        assert parsed["gauges"]["limit"] == 14.5
        assert parsed["histograms"]["power"]["count"] == 1

    def test_empty_histogram_snapshot_has_null_extremes(self):
        registry = MetricsRegistry()
        registry.histogram("power", [1.0])
        snap = registry.snapshot()["histograms"]["power"]
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("ticks").inc()
        registry.reset()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }
        assert registry.counter("ticks").value == 0.0
