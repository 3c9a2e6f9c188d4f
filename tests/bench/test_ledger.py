"""Integration tests: the run ledger across the cold/warm cache lifecycle."""

import pytest

from repro.bench import runner
from repro.bench.frontier import RunRequest
from repro.bench.history import BenchTrajectory, format_observability
from repro.core.dispatch import DispatchPolicy
from repro.system.config import tiny_config

TINY = tiny_config()

POLICIES = (DispatchPolicy.HOST_ONLY, DispatchPolicy.LOCALITY_AWARE)


@pytest.fixture(autouse=True)
def clean_runner():
    runner.clear_cache()
    runner.reset_accounting()
    runner.disable_run_ledger()
    yield
    runner.clear_cache()
    runner.reset_accounting()
    runner.disable_run_ledger()
    runner.disable_disk_cache()
    runner.disable_trace_cache()
    runner.set_jobs(1)


def requests():
    return [RunRequest.single("HG", "small", policy, config=TINY,
                              max_ops_per_thread=300, seed=7, n_values=2000)
            for policy in POLICIES]


def run_suite():
    return runner.prefetch(requests())


class TestColdWarmLedger:
    def test_cold_then_warm_event_profile(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SALT", "ledger-test")
        runner.enable_disk_cache(tmp_path / "cache")
        runner.enable_trace_cache(tmp_path / "cache" / "traces")

        cold = runner.enable_run_ledger()
        run_suite()
        cold_counts = cold.counts()
        n = len(POLICIES)
        assert cold_counts["request_planned"] == n
        assert cold_counts["cache_miss"] == n
        assert cold_counts["simulate_start"] == n
        assert cold_counts["simulate_end"] == n
        assert cold_counts["result_persisted"] == n
        assert cold_counts["trace_capture"] == 1   # one capture, replayed
        assert cold_counts["worker_dispatch"] == n

        # New process simulation: drop memo, keep the disk generation.
        runner.clear_cache()
        runner.reset_accounting()
        runner.enable_trace_cache(tmp_path / "cache" / "traces")
        warm = runner.enable_run_ledger()
        run_suite()
        warm_counts = warm.counts()
        # The acceptance bar: a warm pass is 100% cache-served — every
        # planned request hits, and not one simulate event appears.
        assert warm_counts["request_planned"] == n
        assert warm_counts.get("simulate_start", 0) == 0
        assert warm_counts.get("simulate_end", 0) == 0
        assert warm_counts.get("cache_miss", 0) == 0
        hits = warm_counts.get("disk_hit", 0) + warm_counts.get("memo_hit", 0)
        assert hits >= n
        assert runner.accounting().simulations == 0

    def test_ledger_stream_is_schema_clean(self, tmp_path, monkeypatch):
        from repro.analysis.telemetry import check_events_jsonl

        monkeypatch.setenv("REPRO_BENCH_SALT", "ledger-test")
        runner.enable_disk_cache(tmp_path / "cache")
        runner.enable_trace_cache(tmp_path / "cache" / "traces")
        ledger = runner.enable_run_ledger()
        run_suite()
        path = ledger.write_jsonl(tmp_path / "EVENTS_test.jsonl")
        assert check_events_jsonl(path) == []

    def test_parallel_ledger_is_request_ordered(self, tmp_path):
        runner.set_jobs(2)
        ledger = runner.enable_run_ledger()
        runner.prefetch(requests())
        ends = [e for e in ledger.events if e["kind"] == "simulate_end"]
        fingerprints = [r.resolve(runner.current_settings())
                        .event_fingerprint() for r in requests()]
        # Events absorb in request order whatever the completion order.
        assert [e["fingerprint"] for e in ends] == fingerprints

    def test_listener_ticks_during_parallel_batches(self):
        runner.set_jobs(2)
        kinds = []
        runner.enable_run_ledger(listener=lambda e: kinds.append(e["kind"]))
        runner.prefetch(requests())
        assert kinds.count("simulate_end") == len(POLICIES)
        # Live forwarding must not double-count via the ordered absorb.
        ledger = runner.run_ledger()
        assert ledger.counts()["simulate_end"] == len(POLICIES)

    def test_disable_detaches_from_cache_and_store(self, tmp_path):
        cache = runner.enable_disk_cache(tmp_path / "cache")
        runner.enable_trace_cache(tmp_path / "cache" / "traces")
        runner.enable_run_ledger()
        assert cache.ledger.enabled
        assert runner.trace_store().ledger.enabled
        runner.disable_run_ledger()
        assert not cache.ledger.enabled
        assert not runner.trace_store().ledger.enabled


class TestTrajectoryObservability:
    def test_payload_carries_observability_block(self):
        run_suite()
        trajectory = BenchTrajectory(runid="r1")
        trajectory.observability = runner.frontier_summary()
        payload = trajectory.payload()
        obs = payload["observability"]
        assert obs["schema"] == "repro.obs.frontier/3"
        assert obs["simulate_latency_s"]["count"] == len(POLICIES)

    def test_format_observability_lines(self):
        run_suite()
        record = {"observability": runner.frontier_summary(),
                  "totals": runner.accounting().snapshot()}
        record["observability"]["events"] = {"memo_hit": 2}
        lines = format_observability(record)
        text = "\n".join(lines)
        assert "cache:" in text
        assert "simulate latency" in text
        assert "workers:" in text
        assert "ledger: 2 events" in text

    def test_format_observability_empty_record(self):
        assert format_observability({}) == []
        assert format_observability({"observability": {}}) == []
