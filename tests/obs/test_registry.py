"""Unit tests for the metrics registry."""

import json
import math

import pytest

from repro.obs import MetricsRegistry, StatsView


def test_counter_inc_and_set():
    registry = MetricsRegistry()
    counter = registry.counter("requests")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    counter.set(2)
    assert counter.value == 2


def test_get_or_create_is_keyed_by_name_and_labels():
    registry = MetricsRegistry()
    a = registry.counter("requests", {"node": "store-0"})
    b = registry.counter("requests", {"node": "store-1"})
    again = registry.counter("requests", {"node": "store-0"})
    assert a is again
    assert a is not b
    assert len(registry) == 2


def test_kind_conflict_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValueError):
        registry.gauge("x")


def test_callback_gauge_pulls_value():
    registry = MetricsRegistry()
    backing = {"n": 0}
    gauge = registry.gauge("queue_depth", fn=lambda: backing["n"])
    assert gauge.value == 0
    backing["n"] = 7
    assert gauge.value == 7
    with pytest.raises(ValueError):
        gauge.set(1)


def test_histogram_buckets_and_quantile():
    registry = MetricsRegistry()
    hist = registry.histogram("latency_ms", buckets=(1.0, 10.0, 100.0))
    for value in (0.5, 0.5, 5.0, 50.0):
        hist.observe(value)
    assert hist.count == 4
    assert hist.sum == pytest.approx(56.0)
    assert hist.quantile(0.5) == 1.0
    assert hist.quantile(0.99) == 100.0
    assert math.isnan(registry.histogram("empty").quantile(0.5))


def test_snapshot_shape_and_json_round_trip():
    registry = MetricsRegistry()
    registry.counter("ops", {"node": "a"}).inc(3)
    registry.histogram("lat", buckets=(1.0,)).observe(0.5)
    payload = json.loads(json.dumps(registry.snapshot()))
    names = {metric["name"] for metric in payload["metrics"]}
    assert names == {"ops", "lat"}
    by_name = {metric["name"]: metric for metric in payload["metrics"]}
    assert by_name["ops"]["labels"] == {"node": "a"}
    assert by_name["ops"]["value"] == 3
    assert by_name["lat"]["count"] == 1
    assert by_name["lat"]["buckets"] == [{"le": 1.0, "count": 1}]


class _DemoStats(StatsView):
    PREFIX = "demo"
    COUNTERS = {"requests": 0, "busy_ms": 0.0}
    GAUGES = {"depth": 0}


def test_stats_view_attribute_protocol():
    stats = _DemoStats()
    stats.requests += 1
    stats.requests += 1
    stats.busy_ms += 1.5
    stats.depth = 4
    assert stats.requests == 2
    assert isinstance(stats.requests, int)
    assert stats.busy_ms == pytest.approx(1.5)
    assert stats.depth == 4
    assert stats.as_dict() == {"requests": 2, "busy_ms": 1.5, "depth": 4}
    assert stats.snapshot() == stats.as_dict()
    with pytest.raises(AttributeError):
        stats.nonexistent
    with pytest.raises(AttributeError):
        stats.nonexistent = 1


def test_stats_view_shares_platform_registry():
    registry = MetricsRegistry()
    stats = _DemoStats(registry, labels={"node": "store-0"})
    stats.requests += 3
    metric = registry.get("demo_requests", {"node": "store-0"})
    assert metric is not None and metric.value == 3


def test_stats_view_equality_and_repr():
    a, b = _DemoStats(), _DemoStats()
    assert a == b
    a.requests += 1
    assert a != b
    assert "requests=1" in repr(a)


def test_counter_cells_fold_lazily_on_read():
    registry = MetricsRegistry()
    counter = registry.counter("requests")
    cell_a = counter.cell()
    cell_b = counter.cell()
    cell_a.inc()
    cell_a.inc(3)
    cell_b.inc(2)
    counter.inc()  # direct increments still work alongside cells
    assert counter.value == 7
    # Reading folded the cells: they are empty, the total persists.
    assert cell_a.n == 0 and cell_b.n == 0
    assert counter.value == 7
    cell_b.inc(5)
    assert counter.value == 12


def test_counter_set_discards_unfolded_cell_increments():
    registry = MetricsRegistry()
    counter = registry.counter("requests")
    cell = counter.cell()
    cell.inc(10)
    counter.set(2)
    # The pre-set cell increments must not resurface on the next fold.
    assert counter.value == 2
    cell.inc()
    assert counter.value == 3


def test_stats_view_cell_requires_counter():
    registry = MetricsRegistry()
    stats = _DemoStats(registry, labels={"node": "store-0"})
    cell = stats.cell("requests")
    cell.inc(2)
    assert stats.requests == 2
    # stats.x += 1 (read-fold + set) composes with concurrent cells
    stats.requests += 1
    assert stats.requests == 3
    with pytest.raises(TypeError):
        stats.cell("depth")
