"""Trace store: capture-once keys, disk round-trips, runner integration.

The contract under test is the tentpole invariant of the bench pipeline:
one functional workload run serves every (policy, config) point of a sweep,
and replaying the stored trace is *bit-identical* to a direct
``System.run`` of the live workload (which captures, then replays) —
``RunResult.to_dict()`` compared through ``json.dumps``.
"""

import json

import pytest

from repro.bench import frontier, runner
from repro.bench.frontier import RunRequest, execute_batch
from repro.bench.traces import TraceStore, trace_request_key
from repro.core.dispatch import DispatchPolicy
from repro.core.isa import FP_ADD
from repro.cpu.trace import Pei, TraceError
from repro.system.config import scaled_config, tiny_config
from repro.system.system import System
from repro.workloads.base import Workload

POLICIES = (DispatchPolicy.HOST_ONLY, DispatchPolicy.PIM_ONLY,
            DispatchPolicy.LOCALITY_AWARE, DispatchPolicy.IDEAL_HOST)


def request_for(policy, name="HG", size="small", ops=400, seed=7,
                config=None):
    request = RunRequest.single(
        name, size, policy, config=config if config is not None else tiny_config(),
        max_ops_per_thread=ops, seed=seed)
    return request.resolve(runner.current_settings())


def canon(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.fixture
def isolated_runner():
    """Fresh runner state; restores the module globals afterwards."""
    runner.clear_cache()
    runner.disable_disk_cache()
    store = runner.disable_trace_cache()
    yield store
    runner.clear_cache()
    runner.disable_disk_cache()
    runner.disable_trace_cache()


class TestTraceKey:
    def test_policy_and_timing_config_excluded(self):
        base = request_for(DispatchPolicy.HOST_ONLY)
        other_policy = request_for(DispatchPolicy.PIM_ONLY)
        bigger_l3 = request_for(
            DispatchPolicy.HOST_ONLY,
            config=tiny_config().with_overrides(l3_size=1 << 21))
        store = TraceStore()
        assert trace_request_key(base) == trace_request_key(other_policy)
        assert store.key(base) == store.key(other_policy)
        # Cache geometry only affects timing; the stream is unchanged.
        assert store.key(base) == store.key(bigger_l3)

    def test_stream_shaping_inputs_included(self):
        store = TraceStore()
        base = request_for(DispatchPolicy.HOST_ONLY)
        assert store.key(base) != store.key(
            request_for(DispatchPolicy.HOST_ONLY, ops=300))
        assert store.key(base) != store.key(
            request_for(DispatchPolicy.HOST_ONLY, seed=8))
        assert store.key(base) != store.key(
            request_for(DispatchPolicy.HOST_ONLY,
                        config=tiny_config().with_overrides(n_cores=2)))

    def test_unresolved_request_rejected(self):
        request = RunRequest.single("HG", "small", DispatchPolicy.HOST_ONLY)
        with pytest.raises(ValueError):
            trace_request_key(request)


class TestCaptureOnce:
    def test_one_capture_serves_every_policy(self):
        store = TraceStore()
        requests = [request_for(p) for p in POLICIES]
        traces = [store.get_or_capture(r) for r in requests]
        assert store.captures == 1
        assert store.memo_hits == len(POLICIES) - 1
        assert all(t is traces[0] for t in traces)

    def test_replay_bit_identical_to_generators(self):
        store = TraceStore()
        for policy in POLICIES:
            request = request_for(policy)
            trace = store.get_or_capture(request)
            replayed = frontier.simulate(request, trace=trace)
            generated = frontier.simulate(request)
            assert canon(replayed) == canon(generated), policy

    def test_direct_sp_run_matches_the_figures(self):
        """SP's relaxations read distances other threads lower in the same
        round, so its stream depends on the functional interleaving.  A
        direct run must replay the stream the figures replay (on the
        16-core machine this seed diverged when direct runs interleaved by
        simulated time)."""
        request = request_for(DispatchPolicy.LOCALITY_AWARE, name="SP",
                              ops=300, seed=206, config=scaled_config())
        figure = frontier.simulate(
            request, trace=TraceStore().get_or_capture(request))
        direct = System(request.config, request.policy).run(
            frontier.build_workload(request), max_ops_per_thread=300)
        assert canon(direct) == canon(figure)

    def test_uncompilable_stream_raises(self, monkeypatch):
        class BadChain(Workload):
            name = "bad-chain"

            def prepare(self, space):
                self.region = space.alloc("data", 1 << 16)

            def make_threads(self, n_threads):
                def thread(t):
                    yield Pei(FP_ADD, self.region.base, wait_output=False,
                              chain="not-an-int")
                return [thread(t) for t in range(n_threads)]

        builds = []

        def fake_build(request):
            builds.append(request)
            return BadChain()

        monkeypatch.setattr(frontier, "build_workload", fake_build)
        store = TraceStore()
        request = request_for(DispatchPolicy.HOST_ONLY)
        for _ in range(2):  # a failure is never memoized
            with pytest.raises(TraceError):
                store.get_or_capture(request)
        assert len(builds) == 2
        assert store.counters() == {"captures": 0, "memo_hits": 0,
                                    "disk_hits": 0}


class TestDiskRoundTrip:
    def test_second_store_hits_disk_and_replays_identically(self, tmp_path):
        request = request_for(DispatchPolicy.LOCALITY_AWARE)
        cold = TraceStore(tmp_path)
        trace = cold.get_or_capture(request)
        assert cold.captures == 1
        assert cold.path_for(cold.key(request)).exists()

        warm = TraceStore(tmp_path)
        reloaded = warm.get_or_capture(request)
        assert warm.counters() == {"captures": 0, "memo_hits": 0,
                                   "disk_hits": 1}
        assert reloaded.fingerprint == trace.fingerprint
        assert canon(frontier.simulate(request, trace=reloaded)) == canon(
            frontier.simulate(request, trace=trace))

    def test_salt_isolates_generations(self, tmp_path):
        request = request_for(DispatchPolicy.HOST_ONLY)
        TraceStore(tmp_path, salt="alpha").get_or_capture(request)
        other = TraceStore(tmp_path, salt="beta")
        other.get_or_capture(request)
        assert other.counters()["disk_hits"] == 0
        assert other.counters()["captures"] == 1

    def test_torn_entry_recaptures(self, tmp_path):
        request = request_for(DispatchPolicy.HOST_ONLY)
        store = TraceStore(tmp_path)
        store.get_or_capture(request)
        path = store.path_for(store.key(request))
        path.write_text("{ torn")
        fresh = TraceStore(tmp_path)
        assert fresh.get_or_capture(request) is not None
        assert fresh.counters()["captures"] == 1

    def test_truncated_binary_entry_recaptures(self, tmp_path):
        request = request_for(DispatchPolicy.HOST_ONLY)
        store = TraceStore(tmp_path)
        trace = store.get_or_capture(request)
        path = store.path_for(store.key(request))
        path.write_bytes(path.read_bytes()[:-9])
        fresh = TraceStore(tmp_path)
        recaptured = fresh.get_or_capture(request)
        assert fresh.counters()["captures"] == 1
        assert recaptured.to_bytes() == trace.to_bytes()
        # The recapture republished a whole entry.
        assert TraceStore(tmp_path).get_or_capture(request) is not None


class TestRunnerIntegration:
    def test_sweep_captures_once_per_workload(self, isolated_runner):
        """The fig6 shape: N policies over one input pay one capture."""
        store = isolated_runner
        requests = [request_for(p) for p in POLICIES]
        simulations0 = runner.accounting().simulations
        results = runner.prefetch(requests)
        acct = runner.accounting()
        assert acct.simulations - simulations0 == len(POLICIES)
        assert store.captures == 1
        assert store.memo_hits == len(POLICIES) - 1
        assert acct.trace_captures >= 1
        assert acct.trace_hits >= len(POLICIES) - 1
        # ... and the batch's results equal fresh direct runs.
        for request, result in zip(requests, results):
            assert canon(result) == canon(frontier.simulate(request))

    def test_run_batch_rejects_misaligned_traces(self):
        requests = [request_for(DispatchPolicy.HOST_ONLY)]
        with pytest.raises(ValueError):
            execute_batch(requests, traces=[None, None])

    def test_parallel_batch_ships_traces(self, isolated_runner):
        store = isolated_runner
        requests = [request_for(p, ops=300) for p in POLICIES]
        traces = [store.get_or_capture(r) for r in requests]
        serial = execute_batch(requests, jobs=1, traces=traces)
        parallel = execute_batch(requests, jobs=2, traces=traces)
        assert [e["result"] for e in serial] == [e["result"] for e in parallel]
