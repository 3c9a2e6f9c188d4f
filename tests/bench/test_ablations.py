"""The warm-start ablation's cold runs go through the runner.

Each cold run is its warm run's resolved request with ``warm_start=False``,
so both replay one trace under the seed in effect, and the runner caches,
counts and prefetches the cold runs like every other simulation.
"""

import dataclasses

import pytest

from repro.bench import runner
from repro.bench.ablations import ablation_warm_start
from repro.bench.frontier import RunRequest
from repro.bench.traces import trace_request_key
from repro.core.dispatch import DispatchPolicy
from repro.system.config import scaled_config
from repro.system.system import System
from repro.workloads.registry import make_workload

SEED = 7
OPS = 200


@pytest.fixture(autouse=True)
def seeded_runner(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BENCH_SEED", str(SEED))
    monkeypatch.setenv("REPRO_BENCH_OPS", str(OPS))
    runner.clear_cache()
    runner.reset_accounting()
    runner.enable_disk_cache(tmp_path / "cache", salt="test")
    yield
    runner.disable_disk_cache()
    runner.clear_cache()
    runner.reset_accounting()


def run_ablation():
    return ablation_warm_start(workloads=("SC",), sizes=("small",))


def test_cold_request_shares_the_warm_trace_key():
    warm = RunRequest.single("SC", "small", DispatchPolicy.LOCALITY_AWARE
                             ).resolve(runner.current_settings())
    cold = dataclasses.replace(warm, warm_start=False)
    assert warm.workloads[0].seed == SEED
    assert trace_request_key(cold) == trace_request_key(warm)
    assert cold.fingerprint() != warm.fingerprint()


def test_cold_run_replays_the_seeded_input():
    ratio = run_ablation().data["SC-small"]
    accounting = runner.accounting()
    assert accounting.simulations == 2
    assert accounting.trace_captures == 1  # one capture serves both runs

    def cycles(warm_start):
        system = System(scaled_config(), DispatchPolicy.LOCALITY_AWARE)
        return system.run(make_workload("SC", "small", seed=SEED),
                          max_ops_per_thread=OPS,
                          warm_start=warm_start).cycles

    assert ratio == cycles(False) / cycles(True)


def test_warm_rerun_simulates_nothing():
    first = run_ablation()
    runner.clear_cache()
    runner.reset_accounting()
    second = run_ablation()
    accounting = runner.accounting()
    assert accounting.simulations == 0
    assert accounting.disk_hits == 2
    assert second.data == first.data
