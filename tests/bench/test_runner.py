"""Tests for the memoizing experiment runner."""

import pytest

from repro.bench import runner
from repro.bench.frontier import RunRequest
from repro.core.dispatch import DispatchPolicy
from repro.system.config import tiny_config


@pytest.fixture(autouse=True)
def clean_cache():
    runner.clear_cache()
    runner.reset_accounting()
    yield
    runner.clear_cache()
    runner.reset_accounting()


TINY = dict(config=tiny_config(), max_ops_per_thread=300)


def run_hg(policy, size="small", **overrides):
    """Serve one HG request through the runner's batch of one."""
    return runner.run_request(RunRequest.single("HG", size, policy, **overrides))


class TestRunConfig:
    """One workload under one configuration: a batch of one."""

    def test_returns_result(self):
        result = run_hg(DispatchPolicy.LOCALITY_AWARE, n_values=2000, **TINY)
        assert result.cycles > 0
        assert result.workload == "HG"

    def test_memoized(self):
        a = run_hg(DispatchPolicy.LOCALITY_AWARE, n_values=2000, **TINY)
        b = run_hg(DispatchPolicy.LOCALITY_AWARE, n_values=2000, **TINY)
        assert a is b  # cache hit returns the same object

    def test_policy_differentiates_cache_key(self):
        a = run_hg(DispatchPolicy.HOST_ONLY, n_values=2000, **TINY)
        b = run_hg(DispatchPolicy.PIM_ONLY, n_values=2000, **TINY)
        assert a is not b
        assert a.policy != b.policy

    def test_overrides_differentiate_cache_key(self):
        a = run_hg(DispatchPolicy.HOST_ONLY, n_values=2000, **TINY)
        b = run_hg(DispatchPolicy.HOST_ONLY, n_values=4000, **TINY)
        assert a is not b

    def test_clear_cache(self):
        a = run_hg(DispatchPolicy.HOST_ONLY, n_values=2000, **TINY)
        runner.clear_cache()
        b = run_hg(DispatchPolicy.HOST_ONLY, n_values=2000, **TINY)
        assert a is not b

    def test_multiprogrammed_mix(self):
        parts = (("HG", "small", 1), ("HG", "small", 2))
        result = runner.run_request(RunRequest.multiprog(
            parts, DispatchPolicy.LOCALITY_AWARE, **TINY))
        assert result.cycles > 0
        assert len(result.per_core_instructions) == tiny_config().n_cores


class TestSettings:
    def test_defaults(self):
        settings = runner.BenchSettings()
        assert settings.max_ops_per_thread > 0
        assert settings.n_mixes > 0

    def test_current_settings_rereads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_OPS", "123")
        monkeypatch.setenv("REPRO_BENCH_MIXES", "5")
        settings = runner.current_settings()
        assert settings.max_ops_per_thread == 123
        assert settings.n_mixes == 5
        monkeypatch.setenv("REPRO_BENCH_OPS", "456")
        assert runner.current_settings().max_ops_per_thread == 456

    def test_settings_hashable_for_cache_key(self):
        assert hash(runner.BenchSettings()) == hash(runner.BenchSettings())

    def test_seed_rereads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SEED", "9")
        assert runner.current_settings().seed == 9

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            runner.NO_SUCH_NAME


class TestPrefetchAndAccounting:
    def test_prefetch_populates_memo(self):
        requests = [
            RunRequest.single("HG", "small", DispatchPolicy.HOST_ONLY,
                              n_values=2000, **TINY),
            RunRequest.single("HG", "small", DispatchPolicy.LOCALITY_AWARE,
                              n_values=2000, **TINY),
        ]
        results = runner.prefetch(requests)
        assert [r.policy for r in results] == ["host-only", "locality-aware"]
        assert runner.accounting().simulations == 2
        before = runner.accounting().snapshot()
        for request, result in zip(requests, results):
            assert runner.run_request(request) is result
        after = runner.accounting().snapshot()
        assert after["simulations"] == before["simulations"]
        assert after["memo_hits"] == before["memo_hits"] + 2

    def test_prefetch_dedupes(self):
        request = RunRequest.single("HG", "small", DispatchPolicy.HOST_ONLY,
                                    n_values=2000, **TINY)
        first, again = runner.prefetch([request, request])
        assert first is again  # a repeated request gets the same result
        assert runner.accounting().simulations == 1
        assert runner.accounting().memo_hits == 0
        [memoized] = runner.prefetch([request])
        assert memoized is first
        assert runner.accounting().simulations == 1
        assert runner.accounting().memo_hits == 1

    def test_accounting_tracks_simulated_work(self):
        run_hg(DispatchPolicy.HOST_ONLY, n_values=2000, **TINY)
        acct = runner.accounting()
        assert acct.simulations == 1
        assert acct.instructions > 0
        assert acct.sim_wall_seconds > 0

    def test_set_jobs_validates(self):
        assert runner.set_jobs(2) == 2
        assert runner.get_jobs() == 2
        runner.set_jobs(1)
        with pytest.raises(ValueError):
            runner.set_jobs(0)


class TestEnvChangeInvalidation:
    """Changing REPRO_BENCH_* mid-process must never serve stale results."""

    def test_ops_change_differentiates_cache_key(self, monkeypatch):
        # HG small with n_values=2000 runs ~31 ops/thread, so both caps bind.
        monkeypatch.setenv("REPRO_BENCH_OPS", "5")
        a = run_hg(DispatchPolicy.HOST_ONLY, n_values=2000, config=tiny_config())
        monkeypatch.setenv("REPRO_BENCH_OPS", "25")
        b = run_hg(DispatchPolicy.HOST_ONLY, n_values=2000, config=tiny_config())
        assert a is not b
        assert b.instructions > a.instructions  # more ops actually ran

    def test_same_env_still_memoizes(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_OPS", "200")
        a = run_hg(DispatchPolicy.HOST_ONLY, n_values=2000, config=tiny_config())
        b = run_hg(DispatchPolicy.HOST_ONLY, n_values=2000, config=tiny_config())
        assert a is b

    def test_explicit_ops_overrides_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_OPS", "5000")
        result = run_hg(DispatchPolicy.HOST_ONLY, n_values=2000, **TINY)
        assert result.cycles > 0


class TestRunnerTelemetry:
    @pytest.fixture(autouse=True)
    def no_leftover_telemetry(self):
        yield
        runner.disable_telemetry()

    def test_enable_telemetry_writes_bundles(self, tmp_path):
        runner.enable_telemetry(tmp_path)
        run_hg(DispatchPolicy.LOCALITY_AWARE, n_values=2000, **TINY)
        request = RunRequest.single(
            "HG", "small", DispatchPolicy.LOCALITY_AWARE, n_values=2000,
            **TINY).resolve(runner.current_settings())
        stem = f"hg_locality-aware_{request.fingerprint()[:10]}"
        stems = sorted(p.name for p in tmp_path.iterdir())
        assert stems == [f"{stem}.intervals.jsonl", f"{stem}.run.json",
                         f"{stem}.trace.json"]

    def test_serial_bundles_never_overwrite(self, tmp_path):
        """Two serial runs of one (workload, policy) that differ only in
        input size leave two bundles: each stem carries its request's
        fingerprint prefix."""
        assert runner.get_jobs() == 1
        runner.enable_telemetry(tmp_path)
        for size in ("small", "large"):
            run_hg(DispatchPolicy.LOCALITY_AWARE, size, **TINY)
        assert runner.accounting().simulations == 2
        stems = {p.name.split(".")[0] for p in tmp_path.iterdir()}
        assert len(stems) == 2
        assert len(list(tmp_path.iterdir())) == 6

    def test_disable_telemetry_stops_writing(self, tmp_path):
        runner.enable_telemetry(tmp_path)
        runner.disable_telemetry()
        run_hg(DispatchPolicy.LOCALITY_AWARE, n_values=2000, **TINY)
        assert list(tmp_path.iterdir()) == []
