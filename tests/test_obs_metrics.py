"""Unit tests for the repro.obs metric primitives and registry."""

import math

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.export import metrics_to_csv, metrics_to_json


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("requests")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        counter = Counter("requests")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_reset(self):
        counter = Counter("requests")
        counter.inc(3)
        counter.reset()
        assert counter.value == 0

    def test_to_dict(self):
        counter = Counter("requests")
        counter.inc(2)
        assert counter.to_dict() == {"kind": "counter", "value": 2}


class TestGauge:
    def test_set_add_and_both_directions(self):
        gauge = Gauge("occupancy")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7

    def test_callback_view(self):
        backing = [1, 2, 3]
        gauge = Gauge("length")
        gauge.set_function(lambda: len(backing))
        assert gauge.value == 3
        backing.append(4)
        assert gauge.value == 4

    def test_set_clears_callback(self):
        gauge = Gauge("g")
        gauge.set_function(lambda: 99)
        gauge.set(1)
        assert gauge.value == 1


class TestHistogram:
    def test_empty_summary_is_nan(self):
        histogram = Histogram("latency")
        assert histogram.count == 0
        assert math.isnan(histogram.mean)
        assert math.isnan(histogram.min)
        assert math.isnan(histogram.max)
        assert math.isnan(histogram.quantile(0.5))
        assert math.isnan(histogram.p50())
        assert math.isnan(histogram.p99())

    def test_count_sum_minmax(self):
        histogram = Histogram("latency")
        for value in (1e-6, 5e-6, 1e-3):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(1e-6 + 5e-6 + 1e-3)
        assert histogram.min == pytest.approx(1e-6)
        assert histogram.max == pytest.approx(1e-3)

    def test_quantile_extremes_are_exact(self):
        histogram = Histogram("latency")
        for value in (3e-6, 40e-6, 700e-6):
            histogram.observe(value)
        assert histogram.quantile(0.0) == pytest.approx(3e-6)
        assert histogram.quantile(1.0) == pytest.approx(700e-6)

    def test_quantile_within_bucket_resolution(self):
        histogram = Histogram("latency")
        for _ in range(100):
            histogram.observe(3e-4)  # lands in the (2e-4, 5e-4] bucket
        # All mass in one bucket; min==max pins the estimate exactly.
        assert histogram.p50() == pytest.approx(3e-4)
        assert histogram.p99() == pytest.approx(3e-4)

    def test_quantile_fraction_out_of_range(self):
        histogram = Histogram("latency")
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_overflow_bucket(self):
        histogram = Histogram("latency", buckets=(1.0,))
        histogram.observe(100.0)
        bounds = histogram.buckets()
        assert bounds[-1][0] == math.inf
        assert bounds[-1][1] == 1

    def test_default_buckets_sorted_and_span_expected_range(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_LATENCY_BUCKETS[-1] == pytest.approx(10.0)

    def test_reset(self):
        histogram = Histogram("latency")
        histogram.observe(1e-3)
        histogram.reset()
        assert histogram.count == 0
        assert math.isnan(histogram.p50())

    def test_needs_at_least_one_bucket(self):
        with pytest.raises(ValueError):
            Histogram("latency", buckets=())


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter("x")
        b = registry.counter("x")
        assert a is b

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_register_adopts_external_metric(self):
        registry = MetricsRegistry()
        counter = Counter("ring.enqueued")
        assert registry.register(counter) is counter
        assert registry.get("ring.enqueued") is counter
        # Re-registering the same object is idempotent...
        registry.register(counter)
        # ...but a different object under the same name is a clash.
        with pytest.raises(ValueError):
            registry.register(Counter("ring.enqueued"))

    def test_collect_and_container_protocol(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.gauge("a").set(2)
        assert registry.names() == ["a", "b"]
        assert "a" in registry and "missing" not in registry
        assert len(registry) == 2
        snapshot = registry.collect()
        assert snapshot["a"] == {"kind": "gauge", "value": 2}
        assert snapshot["b"] == {"kind": "counter", "value": 1}
        assert [metric.name for metric in registry] == ["a", "b"]


    def test_subscript_reads_only_registered_names(self):
        registry = MetricsRegistry()
        registry.gauge("flow_cache.hits").set(3)
        assert registry["flow_cache.hits"].value == 3
        with pytest.raises(KeyError):
            registry["flow_cache.hit"]  # misspelt
        assert "flow_cache.hit" not in registry  # the read created nothing


class TestMetricExports:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("delivered").inc(7)
        registry.histogram("latency").observe(2e-4)
        return registry

    def test_json_round_trips(self):
        import json

        doc = json.loads(metrics_to_json(self._registry()))
        assert doc["delivered"]["value"] == 7
        assert doc["latency"]["count"] == 1

    def test_csv_long_form(self):
        rows = metrics_to_csv(self._registry()).strip().splitlines()
        assert rows[0] == "metric,kind,field,value"
        assert "delivered,counter,value,7" in rows
        assert any(row.startswith("latency,histogram,count,1") for row in rows)
