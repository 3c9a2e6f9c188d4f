"""Tests for RunnerAccounting and the frontier observability wiring."""

import dataclasses

import pytest

from repro.bench import runner
from repro.bench.frontier import RunRequest
from repro.core.dispatch import DispatchPolicy
from repro.obs.events import NULL_LEDGER
from repro.system.config import tiny_config

TINY = tiny_config()


@pytest.fixture(autouse=True)
def clean_runner():
    runner.clear_cache()
    runner.reset_accounting()
    runner.disable_run_ledger()
    yield
    runner.clear_cache()
    runner.reset_accounting()
    runner.disable_run_ledger()
    runner.set_jobs(1)


def request_for(policy, n_values=2000):
    return RunRequest.single("HG", "small", policy, config=TINY,
                             max_ops_per_thread=300, seed=7,
                             n_values=n_values)


ALL_POLICIES = (DispatchPolicy.HOST_ONLY, DispatchPolicy.PIM_ONLY,
                DispatchPolicy.LOCALITY_AWARE, DispatchPolicy.IDEAL_HOST)


class TestSnapshot:
    def test_snapshot_covers_every_dataclass_field(self):
        # A field added to RunnerAccounting must show up in snapshots, or
        # trajectory records silently lose it.
        snapshot = runner.accounting().snapshot()
        field_names = {f.name for f in
                       dataclasses.fields(runner.RunnerAccounting)}
        assert set(snapshot) == field_names

    def test_snapshot_is_a_copy(self):
        first = runner.accounting().snapshot()
        runner.run_request(request_for(DispatchPolicy.HOST_ONLY))
        assert first["simulations"] == 0
        assert runner.accounting().snapshot()["simulations"] == 1


class TestReset:
    def test_reset_zeroes_every_field(self):
        runner.run_request(request_for(DispatchPolicy.HOST_ONLY))
        runner.run_request(request_for(DispatchPolicy.HOST_ONLY))
        assert runner.accounting().memo_hits == 1
        runner.reset_accounting()
        snapshot = runner.accounting().snapshot()
        assert all(value == 0 for value in snapshot.values())

    def test_reset_also_resets_the_aggregator(self):
        runner.run_request(request_for(DispatchPolicy.HOST_ONLY))
        assert runner.frontier_summary()["simulate_latency_s"]["count"] == 1
        runner.reset_accounting()
        summary = runner.frontier_summary()
        assert summary["simulate_latency_s"]["count"] == 0
        assert summary["batches"] == 0
        assert summary["workers"] == {}

    def test_between_figures_deltas_are_independent(self):
        # The bench CLI brackets each experiment with snapshots; the deltas
        # must attribute work to the right figure.
        before = runner.accounting().snapshot()
        runner.run_request(request_for(DispatchPolicy.HOST_ONLY))
        after = runner.accounting().snapshot()
        assert after["simulations"] - before["simulations"] == 1
        before2 = after
        runner.run_request(request_for(DispatchPolicy.HOST_ONLY))
        after2 = runner.accounting().snapshot()
        assert after2["simulations"] - before2["simulations"] == 0
        assert after2["memo_hits"] - before2["memo_hits"] == 1


class TestBatchAccounting:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_served_requests_sum_to_request_count(self, jobs):
        runner.set_jobs(jobs)
        requests = [request_for(p) for p in ALL_POLICIES]
        # A repeated request is one point: it is served and counted once.
        results = runner.prefetch(requests + requests[:1])
        assert results[-1] is results[0]
        acct = runner.accounting()
        # Every point was served exactly once, by simulating it.
        assert acct.simulations == len(requests)
        assert acct.memo_hits == 0
        assert acct.disk_hits == 0
        # Trace store: one capture for the first config, replays after.
        assert acct.trace_captures + acct.trace_hits == len(requests)
        assert acct.sim_wall_seconds > 0.0
        assert acct.instructions > 0
        # The same batch again: every point is served from the memo.
        again = runner.prefetch(requests)
        assert all(a is b for a, b in zip(again, results))
        assert acct.simulations == len(requests)
        assert acct.memo_hits == len(requests)
        assert acct.disk_hits == 0

    def test_parallel_batch_feeds_the_aggregator(self):
        runner.set_jobs(2)
        requests = [request_for(p) for p in ALL_POLICIES]
        runner.prefetch(requests)
        summary = runner.frontier_summary()
        assert summary["simulate_latency_s"]["count"] == len(requests)
        assert summary["batches"] == 1
        assert sum(w["payloads"] for w in summary["workers"].values()) \
            == len(requests)

    def test_ledger_defaults_to_null(self):
        assert runner.run_ledger() is NULL_LEDGER
        assert not runner.run_ledger().enabled
