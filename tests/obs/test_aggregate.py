"""Tests for cross-worker telemetry aggregation (repro.obs.aggregate)."""

import pytest

from repro.obs.aggregate import (
    FRONTIER_SCHEMA,
    FrontierAggregator,
    registry_from_dict,
)
from repro.obs.metrics import MetricRegistry


def make_registry(values):
    registry = MetricRegistry()
    registry.counter("pei.issued").inc(10)
    registry.gauge("queue.peak").set(4.0)
    histogram = registry.histogram("pei.latency")
    for value in values:
        histogram.record(value)
    return registry


class TestRegistryRoundTrip:
    def test_counters_gauges_histograms_restored_exactly(self):
        original = make_registry([1.0, 2.0, 4.0, 0.0, 100.0])
        rebuilt = registry_from_dict(original.to_dict())
        assert rebuilt.to_dict() == original.to_dict()

    def test_unknown_type_raises(self):
        with pytest.raises(ValueError, match="unknown type"):
            registry_from_dict({"m": {"type": "meter", "value": 1.0}})

    def test_merge_of_rebuilt_equals_merge_of_live(self):
        a = make_registry([1.0, 3.0, 9.0])
        b = make_registry([2.0, 8.0, 32.0])
        live = make_registry([1.0, 3.0, 9.0])
        live.merge(b)
        rebuilt = registry_from_dict(a.to_dict())
        rebuilt.merge(registry_from_dict(b.to_dict()))
        assert rebuilt.to_dict() == live.to_dict()


def envelope(pid, dur, telemetry=None):
    return {"result": {}, "events": [],
            "worker": {"pid": pid, "dur_s": dur}, "telemetry": telemetry}


class TestFrontierAggregator:
    def test_summary_schema_and_latency(self):
        agg = FrontierAggregator()
        agg.add_batch(2.0)
        for dur in (0.1, 0.2, 0.3, 0.4):
            agg.add_payload(envelope(pid=1000, dur=dur))
        summary = agg.summary()
        assert summary["schema"] == FRONTIER_SCHEMA
        assert summary["batches"] == 1
        latency = summary["simulate_latency_s"]
        assert latency["count"] == 4
        assert latency["mean"] == pytest.approx(0.25)
        assert latency["max"] == pytest.approx(0.4)
        assert 0.0 < latency["p50"] <= latency["p95"] <= latency["max"] * 1.2

    def test_per_worker_utilization(self):
        agg = FrontierAggregator()
        agg.add_batch(2.0)
        agg.add_payload(envelope(pid=11, dur=1.0))
        agg.add_payload(envelope(pid=11, dur=0.5))
        agg.add_payload(envelope(pid=22, dur=0.4))
        workers = agg.summary()["workers"]
        assert workers["11"]["payloads"] == 2
        assert workers["11"]["utilization"] == pytest.approx(0.75)
        assert workers["22"]["utilization"] == pytest.approx(0.2)

    def test_telemetry_snapshots_merge(self):
        agg = FrontierAggregator()
        agg.add_batch(1.0)
        a = make_registry([1.0, 2.0])
        b = make_registry([4.0, 8.0])
        agg.add_payload(envelope(1, 0.1, telemetry={"metrics": a.to_dict()}))
        agg.add_payload(envelope(2, 0.1, telemetry={"metrics": b.to_dict()}))
        summary = agg.summary()
        assert summary["metrics"]["pei.issued"]["value"] == 20
        assert summary["metrics"]["pei.latency"]["count"] == 4
        assert agg.telemetry_payloads == 2

    def test_accounting_derives_cache_trace_and_throughput(self):
        agg = FrontierAggregator()
        agg.add_batch(1.0)
        agg.add_payload(envelope(1, 0.5))
        summary = agg.summary(accounting={
            "simulations": 2.0, "memo_hits": 6.0, "disk_hits": 2.0,
            "instructions": 1000.0, "sim_wall_seconds": 0.5,
            "trace_captures": 1.0, "trace_hits": 3.0})
        assert summary["cache"]["hit_rate"] == pytest.approx(0.8)
        assert summary["traces"]["hit_rate"] == pytest.approx(0.75)
        assert summary["sim_ops_per_second"] == pytest.approx(2000.0)

    def test_empty_aggregator_summary_is_well_formed(self):
        summary = FrontierAggregator().summary()
        assert summary["simulate_latency_s"]["count"] == 0
        assert summary["workers"] == {}
        assert "metrics" not in summary
