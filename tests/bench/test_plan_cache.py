"""Tests for the columnar plan cache: its accounting and its bound.

The ColumnPlan cache is pure harness state: its bound and its hit/miss
history shape host memory use and compile time, never simulated results.
These tests pin both halves of that contract — the frontier reports the
counters' per-run delta in its worker envelope (never in the result), and
results are bit-identical under any bound.
"""

import pytest

pytest.importorskip("numpy")

from repro.bench.frontier import RunRequest, execute_batch, simulate
from repro.core.dispatch import DispatchPolicy
from repro.cpu.trace import capture_trace
from repro.system import columnar
from repro.system.config import tiny_config
from repro.system.result import RunResult
from repro.system.system import System
from repro.workloads.registry import make_workload


@pytest.fixture(autouse=True)
def restore_plan_cache():
    yield
    columnar._PLAN_CACHE.clear()


def captured_trace(n_values=2000, max_ops=300, seed=7):
    # Keyed the way the bench trace store captures; the trace fingerprint
    # keys the plan cache (TestKeylessFingerprint covers key=None).
    config = tiny_config()
    workload = make_workload("HG", "small", seed=seed, n_values=n_values)
    return capture_trace(workload, n_threads=config.n_cores,
                         page_size=config.page_size,
                         max_ops_per_thread=max_ops,
                         key={"workload": "HG", "seed": seed,
                              "n_values": n_values})


def request_for_trace():
    # The frontier request that captured_trace()'s defaults stand for.
    return RunRequest.single(
        "HG", "small", DispatchPolicy.HOST_ONLY, config=tiny_config(),
        max_ops_per_thread=300, seed=7, n_values=2000)


def replay(trace, policy=DispatchPolicy.HOST_ONLY):
    return System(tiny_config(), policy).run(trace, engine="columnar")


class TestCounters:
    def test_miss_then_hit(self):
        trace = captured_trace()
        columnar._PLAN_CACHE.clear()
        before = columnar.plan_cache_counters()
        replay(trace)
        mid = columnar.plan_cache_counters()
        assert mid["misses"] == before["misses"] + 1
        replay(trace)
        after = columnar.plan_cache_counters()
        assert after["hits"] == mid["hits"] + 1
        assert after["misses"] == mid["misses"]

    def test_counters_returns_copy(self):
        counters = columnar.plan_cache_counters()
        counters["hits"] += 1000
        assert columnar.plan_cache_counters()["hits"] != counters["hits"]

    def test_result_carries_transient_delta(self):
        """The run's delta travels beside its result, in the frontier's
        worker envelope: taken around the envelope's own simulate() call,
        so two serial batches on one trace report a miss, then a hit."""
        trace = captured_trace()
        columnar._PLAN_CACHE.clear()
        envelopes = [execute_batch([request_for_trace()], traces=[trace])[0]
                     for _ in range(2)]
        deltas = [e["worker"]["plan_cache"] for e in envelopes]
        for delta in deltas:
            assert set(delta) == {"hits", "misses", "evictions"}
            assert delta["hits"] + delta["misses"] == 1
        assert deltas == [{"hits": 0, "misses": 1, "evictions": 0},
                          {"hits": 1, "misses": 0, "evictions": 0}]

    def test_transient_metadata_excluded_from_dict(self):
        """The delta is harness state: neither the serialized result nor the
        model's own result holds it, only the run's own facts."""
        trace = captured_trace()
        envelope = execute_batch([request_for_trace()], traces=[trace])[0]
        payload = envelope["result"]
        run_facts = {"n_threads", "max_ops_per_thread", "footprint_bytes",
                     "config_l3_size"}
        assert set(payload["metadata"]) == run_facts
        # Round-tripping therefore carries it nowhere either.
        rebuilt = RunResult.from_dict(payload)
        assert set(rebuilt.metadata) == run_facts
        assert rebuilt.to_dict() == payload
        assert set(replay(trace).metadata) == run_facts


class TestLimit:
    def test_lowering_evicts(self, monkeypatch):
        monkeypatch.setattr(columnar, "_PLAN_CACHE_LIMIT", 1)
        columnar._PLAN_CACHE.clear()
        before = columnar.plan_cache_counters()
        for seed in (11, 12, 13):
            replay(captured_trace(seed=seed))
        assert len(columnar._PLAN_CACHE) == 1
        after = columnar.plan_cache_counters()
        assert after["evictions"] == before["evictions"] + 2

    def test_limit_one_thrashes_but_results_identical(self, monkeypatch):
        """The bound is a memory/recompile trade: never a results change."""
        traces = [captured_trace(seed=s) for s in (11, 12)]
        columnar._PLAN_CACHE.clear()
        wide = [replay(t).to_dict() for t in traces + traces]
        monkeypatch.setattr(columnar, "_PLAN_CACHE_LIMIT", 1)
        columnar._PLAN_CACHE.clear()
        narrow = [replay(t).to_dict() for t in traces + traces]
        assert wide == narrow

    def test_policies_sharing_monitorless_plan_key(self):
        """HOST_ONLY and PIM_ONLY replay the same compiled plan."""
        trace = captured_trace()
        columnar._PLAN_CACHE.clear()
        before = columnar.plan_cache_counters()
        replay(trace, DispatchPolicy.HOST_ONLY)
        replay(trace, DispatchPolicy.PIM_ONLY)
        after = columnar.plan_cache_counters()
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 1


class TestOnePlanPerTrace:
    """The plan key is (trace, config): every policy shares one compile."""

    def test_five_policies_one_miss_four_hits(self):
        trace = captured_trace()
        columnar._PLAN_CACHE.clear()
        before = columnar.plan_cache_counters()
        for policy in DispatchPolicy:
            replay(trace, policy)
        after = columnar.plan_cache_counters()
        assert len(DispatchPolicy) == 5
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 4

    def test_shared_plan_replays_equal_fresh_compiles(self):
        """A plan compiled under one policy replays every other policy
        exactly as a plan compiled for that policy alone."""
        trace = captured_trace()
        columnar._PLAN_CACHE.clear()
        shared = [replay(trace, policy).to_dict() for policy in DispatchPolicy]
        fresh = []
        for policy in DispatchPolicy:
            columnar._PLAN_CACHE.clear()
            fresh.append(replay(trace, policy).to_dict())
        assert shared == fresh

    def test_monitor_tags_installed_only_when_consulted(self):
        trace = captured_trace()
        host = System(tiny_config(), DispatchPolicy.HOST_ONLY)
        host.run(trace, engine="columnar")
        assert not host.machine.monitor._tags
        aware = System(tiny_config(), DispatchPolicy.LOCALITY_AWARE)
        aware.run(trace, engine="columnar")
        assert aware.machine.monitor._tags


class TestBitIdentityAcrossEngines:
    def test_generator_and_replay_dicts_equal(self):
        """A live workload and its captured trace replay to one result."""
        request = RunRequest.single(
            "HG", "small", DispatchPolicy.HOST_ONLY, config=tiny_config(),
            max_ops_per_thread=300, seed=7, n_values=2000)
        trace = captured_trace(n_values=2000, max_ops=300)
        via_generator = simulate(request)
        via_replay = simulate(request, trace=trace)
        assert via_generator.to_dict() == via_replay.to_dict()


class TestKeylessFingerprint:
    """Without a key, the fingerprint is derived from the captured content."""

    @staticmethod
    def keyless(n_values):
        config = tiny_config()
        workload = make_workload("HG", "small", seed=7, n_values=n_values)
        return capture_trace(workload, n_threads=config.n_cores,
                             page_size=config.page_size,
                             max_ops_per_thread=300)

    def test_same_capture_same_fingerprint(self):
        assert self.keyless(2000).fingerprint == self.keyless(2000).fingerprint

    def test_two_inputs_do_not_share_a_plan(self):
        """Regression: keyed by workload name alone, HG at 40000 values
        replayed the 2000-value input's cached plan (1512 cycles where
        scalar replay gives 13672)."""
        columnar._PLAN_CACHE.clear()
        small, large = self.keyless(2000), self.keyless(40000)
        assert small.fingerprint != large.fingerprint
        policy = DispatchPolicy.LOCALITY_AWARE
        System(tiny_config(), policy).run(small, engine="columnar")
        replayed = System(tiny_config(), policy).run(large, engine="columnar")
        scalar = System(tiny_config(), policy).run(large, engine="scalar")
        assert replayed.to_dict() == scalar.to_dict()
