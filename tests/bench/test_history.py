"""Trajectory-history robustness: unreadable records, worker ordering."""

import json

import pytest

from repro.bench.history import format_observability, load_records
from repro.obs.aggregate import FRONTIER_SCHEMA


def write_record(history_dir, runid):
    path = history_dir / f"BENCH_{runid}.json"
    path.write_text(json.dumps({
        "schema": "repro.bench.trajectory/1",
        "runid": runid,
    }))
    return path


class TestLoadRecords:
    def test_loads_in_chronological_order(self, tmp_path):
        write_record(tmp_path, "20260101-000000-aaaa")
        write_record(tmp_path, "20260102-000000-bbbb")
        records = load_records(tmp_path)
        assert [r["runid"] for _, r in records] == [
            "20260101-000000-aaaa", "20260102-000000-bbbb"]

    def test_skips_corrupt_record_with_warning(self, tmp_path):
        write_record(tmp_path, "20260101-000000-aaaa")
        # A half-downloaded CI artifact: truncated JSON.
        (tmp_path / "BENCH_20260102-000000-torn.json").write_text(
            '{"schema": "repro.bench.trajectory/1", "run')
        write_record(tmp_path, "20260103-000000-cccc")
        with pytest.warns(UserWarning, match="torn"):
            records = load_records(tmp_path)
        assert [r["runid"] for _, r in records] == [
            "20260101-000000-aaaa", "20260103-000000-cccc"]


class TestFormatObservability:
    def test_workers_sort_numerically(self):
        """JSON string pids must order as numbers: 9 before 10 and 100."""
        record = {"observability": {"workers": {
            "100": {"payloads": 3, "utilization": 0.5},
            "9": {"payloads": 1, "utilization": 0.25},
            "10": {"payloads": 2, "utilization": 0.75},
        }}}
        (line,) = format_observability(record)
        p9 = line.index("pid 9:")
        p10 = line.index("pid 10:")
        p100 = line.index("pid 100:")
        assert p9 < p10 < p100

    def test_empty_record_yields_no_lines(self):
        assert format_observability({}) == []

    def test_counts_print_from_totals_for_either_schema(self):
        """A frontier/2 block restated the cache, trace and plan-cache
        counts and the ops/s of ``totals``; /3 keeps them there alone.
        Both records print the lines the /2 block used to print."""
        new = frontier_record(FRONTIER_SCHEMA)
        old = frontier_record("repro.obs.frontier/2")
        old["observability"].update({
            "cache": {"memo_hits": 4, "disk_hits": 0, "simulations": 12,
                      "hit_rate": 0.25},
            "traces": {"captures": 4, "hits": 8, "hit_rate": 8 / 12},
            "plan_cache": {"hits": 8, "misses": 4, "evictions": 0,
                           "hit_rate": 8 / 12, "trace_decodes": 4,
                           "trace_decode_hits": 8},
            "sim_ops_per_second": 48231.85})
        expected = [
            "  cache: 25% hit rate (4 memo + 0 disk, 12 simulated)",
            "  traces: 4 captured, 8 replayed (67% hit rate)",
            "  plan cache: 8 hits, 4 compiles, 0 evictions (67% hit rate); "
            "trace decodes 4 (+8 memoized)",
            "  simulate latency: p50 0.350s p95 0.900s max 1.100s (12 runs)",
            "  simulated ops/s: 48,232",
            "  workers: pid 9: 5 runs, 40% busy; pid 10: 7 runs, 60% busy",
            "  ledger: 16 events (2 kinds)",
        ]
        for record in (new, old):
            assert format_observability(json.loads(json.dumps(record))) \
                == expected


def frontier_record(schema):
    """A trajectory record as a fig10-shaped session writes it."""
    return {
        "totals": {"wall_seconds": 5.5, "simulations": 12, "memo_hits": 4,
                   "disk_hits": 0, "instructions": 241159.25,
                   "sim_wall_seconds": 5.0, "trace_captures": 4,
                   "trace_hits": 8, "plan_hits": 8, "plan_misses": 4,
                   "plan_evictions": 0, "trace_decodes": 4,
                   "trace_decode_hits": 8, "sim_ops_per_second": 48231.85},
        "observability": {
            "schema": schema, "batches": 1, "batch_wall_s": 5.0,
            "simulate_latency_s": {"count": 12, "mean": 0.4, "p50": 0.35,
                                   "p95": 0.9, "max": 1.1},
            "workers": {
                "10": {"payloads": 7, "busy_s": 3.0, "utilization": 0.6},
                "9": {"payloads": 5, "busy_s": 2.0, "utilization": 0.4}},
            "events": {"memo_hit": 4, "simulate_end": 12}},
    }
