"""Tests for the plan/execute frontier: requests, batches, parallelism."""

import pytest

from repro.bench import runner
from repro.bench.frontier import (
    RunRequest,
    WorkloadSpec,
    build_workload,
    execute_batch,
    simulate,
)
from repro.core.dispatch import DispatchPolicy
from repro.system.config import tiny_config
from repro.system.result import RunResult

TINY = tiny_config()


def batch_results(requests, **kwargs):
    """The batch's results, rehydrated from their worker envelopes."""
    return [RunResult.from_dict(envelope["result"])
            for envelope in execute_batch(requests, **kwargs)]


def tiny_request(policy=DispatchPolicy.LOCALITY_AWARE, n_values=2000):
    return RunRequest.single("HG", "small", policy, config=TINY,
                             max_ops_per_thread=300, seed=7,
                             n_values=n_values)


def tiny_rp_request():
    return RunRequest.single("RP", "small", DispatchPolicy.LOCALITY_AWARE,
                             config=TINY, max_ops_per_thread=300, seed=7,
                             n_rows=2048, passes=1)


class TestWorkloadSpec:
    def test_make_sorts_overrides(self):
        a = WorkloadSpec.make("HG", "small", 1, b=2, a=1)
        b = WorkloadSpec.make("HG", "small", 1, a=1, b=2)
        assert a == b
        assert hash(a) == hash(b)

    def test_build_requires_seed(self):
        spec = WorkloadSpec.make("HG", "small")
        with pytest.raises(ValueError, match="unresolved"):
            spec.build()

    def test_build(self):
        workload = WorkloadSpec.make("HG", "small", 7, n_values=2000).build()
        assert workload.name == "HG"


class TestResolve:
    def test_unresolved_until_pinned(self):
        request = RunRequest.single("HG", "small",
                                    DispatchPolicy.HOST_ONLY)
        assert not request.resolved
        resolved = request.resolve(runner.current_settings())
        assert resolved.resolved
        assert resolved.config is not None
        assert resolved.max_ops_per_thread > 0
        assert all(s.seed is not None for s in resolved.workloads)

    def test_resolve_pins_settings_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_OPS", "111")
        monkeypatch.setenv("REPRO_BENCH_SEED", "9")
        resolved = RunRequest.single(
            "HG", "small", DispatchPolicy.HOST_ONLY).resolve(
                runner.current_settings())
        assert resolved.max_ops_per_thread == 111
        assert resolved.workloads[0].seed == 9

    def test_explicit_values_survive_resolution(self):
        resolved = tiny_request().resolve(runner.current_settings())
        assert resolved == tiny_request()

    def test_resolve_idempotent(self):
        settings = runner.current_settings()
        once = tiny_request().resolve(settings)
        assert once.resolve(settings) == once


class TestFingerprint:
    def test_stable(self):
        assert tiny_request().fingerprint() == tiny_request().fingerprint()

    def test_sensitive_to_every_axis(self):
        base = tiny_request()
        variants = [
            tiny_request(policy=DispatchPolicy.HOST_ONLY),
            tiny_request(n_values=4000),
            RunRequest.single("HG", "small", DispatchPolicy.LOCALITY_AWARE,
                              config=TINY, max_ops_per_thread=301, seed=7,
                              n_values=2000),
            RunRequest.single("HG", "small", DispatchPolicy.LOCALITY_AWARE,
                              config=TINY, max_ops_per_thread=300, seed=8,
                              n_values=2000),
        ]
        for variant in variants:
            assert variant.fingerprint() != base.fingerprint()

    def test_salt_changes_fingerprint(self):
        request = tiny_request()
        assert request.fingerprint("a") != request.fingerprint("b")

    def test_requires_resolved(self):
        request = RunRequest.single("HG", "small", DispatchPolicy.HOST_ONLY)
        with pytest.raises(ValueError, match="resolved"):
            request.fingerprint()


class TestBuildWorkload:
    def test_single(self):
        workload = build_workload(tiny_request())
        assert workload.name == "HG"

    def test_multiprog(self):
        request = RunRequest.multiprog(
            [("HG", "small", 1), ("PR", "small", 2)],
            DispatchPolicy.LOCALITY_AWARE, config=TINY,
            max_ops_per_thread=300)
        workload = build_workload(request)
        assert "HG" in workload.name and "PR" in workload.name

    def test_multiprog_needs_two_parts(self):
        with pytest.raises(ValueError, match=">= 2"):
            RunRequest.multiprog([("HG", "small", 1)],
                                 DispatchPolicy.HOST_ONLY)


class TestRunBatch:
    def test_rejects_unresolved(self):
        request = RunRequest.single("HG", "small", DispatchPolicy.HOST_ONLY)
        with pytest.raises(ValueError, match="unresolved"):
            batch_results([request])

    def test_serial_matches_simulate(self):
        request = tiny_request()
        [batched] = batch_results([request], jobs=1)
        direct = simulate(request)
        assert batched.to_dict() == direct.to_dict()

    def test_parallel_bit_identical_to_serial(self):
        """The tentpole invariant: jobs=2 merges to the same stats."""
        requests = [tiny_request(policy=DispatchPolicy.HOST_ONLY),
                    tiny_request(policy=DispatchPolicy.LOCALITY_AWARE),
                    tiny_rp_request()]
        serial = batch_results(requests, jobs=1)
        parallel = batch_results(requests, jobs=2)
        assert [r.to_dict() for r in serial] == \
               [r.to_dict() for r in parallel]

    def test_parallel_preserves_request_order(self):
        requests = [tiny_rp_request(), tiny_request()]
        results = batch_results(requests, jobs=2)
        assert [r.workload for r in results] == ["RP", "HG"]

    def test_parallel_telemetry_bundles(self, tmp_path):
        requests = [tiny_request(policy=DispatchPolicy.HOST_ONLY),
                    tiny_request(policy=DispatchPolicy.LOCALITY_AWARE)]
        execute_batch(requests, jobs=2, telemetry_dir=tmp_path)
        stems = {p.name.split(".")[0] for p in tmp_path.iterdir()}
        # One <workload>_<policy>_<fingerprint[:10]> stem per request, three
        # files per stem: the serial batch's format.
        assert stems == {f"hg_{r.policy.value}_{r.fingerprint()[:10]}"
                         for r in requests}
        assert len(list(tmp_path.iterdir())) == 6
