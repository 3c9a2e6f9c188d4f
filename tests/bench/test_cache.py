"""Tests for the content-addressed on-disk result cache."""

import json

import pytest

from repro.bench import runner
from repro.bench.cache import BenchCache, code_version_salt
from repro.bench.frontier import RunRequest
from repro.core.dispatch import DispatchPolicy
from repro.system.config import tiny_config

TINY = tiny_config()


def tiny_request(policy=DispatchPolicy.LOCALITY_AWARE, **over):
    return RunRequest.single("HG", "small", policy, config=TINY,
                             max_ops_per_thread=300, seed=7,
                             n_values=2000, **over)


@pytest.fixture(autouse=True)
def clean_runner(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SALT", "testsalt")
    runner.clear_cache()
    runner.reset_accounting()
    yield
    runner.disable_disk_cache()
    runner.clear_cache()
    runner.reset_accounting()


class TestSalt:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SALT", "abc")
        assert code_version_salt() == "abc"

    def test_computed_salt_is_stable(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SALT", raising=False)
        assert code_version_salt() == code_version_salt()
        assert len(code_version_salt()) == 16


class TestBenchCache:
    def test_roundtrip(self, tmp_path):
        from repro.bench.frontier import simulate
        cache = BenchCache(tmp_path)
        request = tiny_request()
        assert cache.get(request) is None
        result = simulate(request)
        path = cache.put(request, result)
        assert path.is_file()
        cached = cache.get(request)
        assert cached is not None
        assert cached.to_dict() == result.to_dict()
        assert cache.counters() == {"hits": 1, "misses": 1, "stores": 1}
        assert len(cache) == 1

    def test_layout_shards_by_fingerprint(self, tmp_path):
        cache = BenchCache(tmp_path, salt="s")
        key = cache.key(tiny_request())
        path = cache.path_for(key)
        assert path == tmp_path / "v-s" / key[:2] / f"{key}.json"

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        from repro.bench.frontier import simulate
        cache = BenchCache(tmp_path)
        request = tiny_request()
        path = cache.put(request, simulate(request))
        path.write_text("{ torn write")
        assert cache.get(request) is None

    def test_salt_partitions_generations(self, tmp_path):
        from repro.bench.frontier import simulate
        request = tiny_request()
        old = BenchCache(tmp_path, salt="old")
        old.put(request, simulate(request))
        assert BenchCache(tmp_path, salt="new").get(request) is None


class TestRunnerDiskCache:
    def test_second_pass_simulates_nothing(self, tmp_path):
        """The acceptance criterion: a repeat invocation is all disk hits."""
        requests = [tiny_request(policy=DispatchPolicy.HOST_ONLY),
                    tiny_request(policy=DispatchPolicy.LOCALITY_AWARE)]
        runner.enable_disk_cache(tmp_path)
        runner.prefetch(requests)
        assert runner.accounting().simulations == 2

        # New process simulation: fresh memo, fresh accounting, same disk.
        runner.clear_cache()
        runner.reset_accounting()
        runner.enable_disk_cache(tmp_path)
        for result in runner.prefetch(requests):
            assert result.cycles > 0
        acct = runner.accounting()
        assert acct.simulations == 0
        assert acct.disk_hits == 2
        assert acct.memo_hits == 0

    def test_disk_hit_matches_simulated_result(self, tmp_path):
        request = tiny_request()
        runner.enable_disk_cache(tmp_path)
        fresh = runner.run_request(request)
        runner.clear_cache()
        cached = runner.run_request(request)
        assert cached is not fresh
        assert cached.to_dict() == fresh.to_dict()

    def test_ops_env_change_is_a_miss(self, tmp_path, monkeypatch):
        """REPRO_BENCH_OPS is part of the resolved request fingerprint."""
        cache = runner.enable_disk_cache(tmp_path)
        request = RunRequest.single("HG", "small", DispatchPolicy.HOST_ONLY,
                                    config=TINY, n_values=2000)
        monkeypatch.setenv("REPRO_BENCH_OPS", "5")
        runner.run_request(request)
        runner.clear_cache()
        monkeypatch.setenv("REPRO_BENCH_OPS", "25")
        runner.run_request(request)
        assert runner.accounting().simulations == 2
        assert cache.stores == 2

    def test_config_field_change_is_a_miss(self, tmp_path):
        from dataclasses import replace
        cache = BenchCache(tmp_path)
        a = tiny_request()
        b = tiny_request().resolve(runner.current_settings())
        b = RunRequest(workloads=b.workloads, policy=b.policy,
                       config=replace(TINY, pcu_issue_width=TINY.pcu_issue_width + 1),
                       max_ops_per_thread=b.max_ops_per_thread)
        assert cache.key(a) != cache.key(b)

    def test_code_salt_partitions_runner_cache(self, tmp_path, monkeypatch):
        request = tiny_request()
        runner.enable_disk_cache(tmp_path)
        runner.run_request(request)
        runner.clear_cache()
        monkeypatch.setenv("REPRO_BENCH_SALT", "othersalt")
        runner.enable_disk_cache(tmp_path)
        runner.run_request(request)
        assert runner.accounting().simulations == 2

    def test_entries_record_request_metadata(self, tmp_path):
        runner.enable_disk_cache(tmp_path)
        runner.run_request(tiny_request())
        [entry] = (tmp_path / "v-testsalt").rglob("*.json")
        payload = json.loads(entry.read_text())
        assert payload["salt"] == "testsalt"
        assert payload["request"]["policy"] == "locality-aware"
        assert payload["result"]["workload"] == "HG"
