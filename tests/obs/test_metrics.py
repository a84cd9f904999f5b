"""Counters, gauges, histograms, stage timers, and snapshot export."""

import json

import pytest

from repro.obs import Observability
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    load_snapshot,
)


class TestCounter:
    def test_inc_with_labels(self):
        counter = Counter("net.dropped", ("reason", "device"))
        counter.inc(reason="loss", device="telescope")
        counter.inc(2, reason="loss", device="telescope")
        counter.inc(reason="no_route", device="botnet")
        assert counter.value(reason="loss", device="telescope") == 3
        assert counter.total() == 4

    def test_sum_where_partial_match(self):
        counter = Counter("net.dropped", ("reason", "device"))
        counter.inc(reason="loss", device="a")
        counter.inc(reason="loss", device="b")
        counter.inc(reason="no_route", device="a")
        assert counter.sum_where(reason="loss") == 2
        assert counter.sum_where(device="a") == 2

    def test_wrong_labels_rejected(self):
        counter = Counter("x", ("device",))
        with pytest.raises(ValueError):
            counter.inc(reason="loss")

    def test_inc_key_fast_path(self):
        counter = Counter("x", ("device",))
        counter.inc_key(("t",), 5)
        assert counter.value(device="t") == 5


class TestHistogram:
    def test_bucketing_including_overflow(self):
        hist = Histogram("bytes", (10, 100, 1000))
        for value in (5, 50, 50, 500, 5000):
            hist.observe_key((), value)
        series = hist.series[()]
        assert series.counts == [1, 2, 1, 1]
        assert series.count == 5
        assert series.sum == 5605

    def test_labeled_series_are_independent(self):
        hist = Histogram("bytes", (100,), ("kind",))
        hist.observe(50, kind="scan")
        hist.observe(500, kind="backscatter")
        assert hist.series[("scan",)].counts == [1, 0]
        assert hist.series[("backscatter",)].counts == [0, 1]

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("bad", (100, 10))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a", ("x",)) is registry.counter("a", ("x",))

    def test_label_mismatch_on_reregistration(self):
        registry = MetricsRegistry()
        registry.counter("a", ("x",))
        with pytest.raises(ValueError):
            registry.counter("a", ("y",))

    def test_time_block_accumulates(self):
        """Each span over a block adds its seconds and one call."""
        registry = MetricsRegistry()
        obs = Observability(metrics=registry)
        with obs.span("classify"):
            pass
        with obs.span("classify"):
            pass
        snapshot = registry.snapshot()
        assert snapshot["timers"]["classify"]["calls"] == 2
        assert snapshot["timers"]["classify"]["seconds"] >= 0

    def test_time_block_records_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with Observability(metrics=registry).span("boom"):
                raise RuntimeError()
        assert registry.snapshot()["timers"]["boom"]["calls"] == 1


class TestSnapshot:
    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("net.dropped", ("reason",)).inc(reason="loss")
        registry.gauge("sim.ratio").set_key((), 12.5)
        registry.histogram("bytes", (100, 1000), ("kind",)).observe(42, kind="scan")
        registry.add_time("simulate", 0.25)
        snapshot = json.loads(registry.to_json())
        assert snapshot["counters"]["net.dropped"]["values"]["loss"] == 1
        assert snapshot["gauges"]["sim.ratio"]["values"][""] == 12.5
        hist = snapshot["histograms"]["bytes"]
        assert hist["buckets"] == ["<=100", "<=1000", "+Inf"]
        assert hist["values"]["scan"]["counts"] == [1, 0, 0]
        assert "simulate" in snapshot["timers"]

    def test_write_and_load_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc_key((), 7)
        path = str(tmp_path / "m.json")
        registry.write(path)
        snapshot = load_snapshot(path)
        assert snapshot["counters"]["c"]["values"][""] == 7


class TestMergeSnapshot:
    """Pushgateway-style aggregation of worker snapshots (sharded runs)."""

    def worker_registry(self, delivered, payload_bytes):
        registry = MetricsRegistry()
        registry.counter("net.delivered", ("device",)).inc(delivered, device="tele")
        registry.gauge("sim.events").set_key((), delivered * 10)
        hist = registry.histogram("payload", (100, 1000), ("kind",))
        for value in payload_bytes:
            hist.observe(value, kind="scan")
        registry.add_time("simulate", 0.25)
        return registry

    def test_counters_gauges_histograms_timers_sum(self):
        parent = MetricsRegistry()
        parent.merge_snapshot(self.worker_registry(3, [50, 500]).snapshot())
        parent.merge_snapshot(self.worker_registry(4, [5000]).snapshot())
        assert parent.counter("net.delivered", ("device",)).values[("tele",)] == 7
        assert parent.gauge("sim.events").values[()] == 70
        hist = parent.histogram("payload", (100, 1000), ("kind",))
        series = hist.series[("scan",)]
        assert series.counts == [1, 1, 1]
        assert series.count == 3 and series.sum == 5550
        assert parent.snapshot()["timers"]["simulate"]["calls"] == 2

    def test_merge_into_nonempty_parent(self):
        parent = self.worker_registry(1, [10])
        parent.merge_snapshot(self.worker_registry(2, [20]).snapshot())
        assert parent.counter("net.delivered", ("device",)).values[("tele",)] == 3
        assert parent.histogram("payload", (100, 1000), ("kind",)).series[
            ("scan",)
        ].count == 2

    def test_merge_is_associative_with_snapshot_roundtrip(self, tmp_path):
        a = self.worker_registry(5, [1])
        b = self.worker_registry(6, [2])
        left = MetricsRegistry()
        left.merge_snapshot(a.snapshot())
        left.merge_snapshot(b.snapshot())
        right = MetricsRegistry()
        right.merge_snapshot(b.snapshot())
        right.merge_snapshot(a.snapshot())
        assert left.snapshot() == right.snapshot()
        # snapshots survive a JSON round-trip (the IPC path)
        path = str(tmp_path / "w.json")
        a.write(path)
        reparsed = MetricsRegistry()
        reparsed.merge_snapshot(load_snapshot(path))
        assert reparsed.snapshot() == a.snapshot()

    def test_label_mismatch_rejected(self):
        parent = MetricsRegistry()
        parent.counter("net.delivered", ("other",))
        with pytest.raises(ValueError):
            parent.merge_snapshot(self.worker_registry(1, []).snapshot())

    def test_histogram_without_bounds_rejected(self):
        snapshot = self.worker_registry(1, [10]).snapshot()
        del snapshot["histograms"]["payload"]["bounds"]
        with pytest.raises(ValueError, match="bounds"):
            MetricsRegistry().merge_snapshot(snapshot)

    def test_snapshot_carries_bounds(self):
        snapshot = self.worker_registry(1, [10]).snapshot()
        assert snapshot["histograms"]["payload"]["bounds"] == [100, 1000]
