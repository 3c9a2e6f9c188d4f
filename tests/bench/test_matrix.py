"""Every matrix experiment states its requests once and is served as one batch.

The simulation is stubbed: ``runner._execute`` records each batch of misses
and memoizes a canned result per request, so nothing is captured and no
pool starts.  An experiment that reads a result back after its batch, or
runs a point outside it, shows up as a memo hit or as a second batch; one
that simulates around the runner calls ``System.run``, which raises.
"""

import dataclasses

import pytest

from repro.bench import runner
from repro.bench.__main__ import EXPERIMENTS
from repro.bench.experiments import run_matrix
from repro.bench.frontier import RunRequest
from repro.core.dispatch import DispatchPolicy
from repro.energy.model import EnergyBreakdown
from repro.system.result import RunResult
from repro.system.system import System

#: ``sweep_scale`` runs two adaptive sweeps, each a batch per round.
MATRIX_ENTRIES = [name for name in EXPERIMENTS if name != "sweep_scale"]

CANNED = RunResult(
    workload="", policy="", cycles=1000.0, instructions=4000,
    per_core_instructions=[1000, 1000, 1000, 1000],
    stats={"offchip.request_bytes": 4096.0, "offchip.response_bytes": 4096.0,
           "pei.host_executed": 10.0, "pei.mem_executed": 10.0},
    energy=EnergyBreakdown(caches_pj=1.0, dram_pj=1.0, offchip_pj=1.0,
                           onchip_network_pj=1.0, host_pcu_pj=1.0,
                           mem_pcu_pj=1.0, pmu_pj=1.0))


@pytest.fixture
def batches(monkeypatch):
    """The batches of misses the runner hands to the (stubbed) simulator."""
    seen = []

    def execute(requests):
        seen.append(list(requests))
        results = [dataclasses.replace(CANNED, workload=request.workloads[0].name,
                                       policy=request.policy.value)
                   for request in requests]
        runner._MEMO.update(zip(requests, results))
        runner.accounting().simulations += len(requests)
        return results

    def around_the_runner(*args, **kwargs):
        raise AssertionError("simulated around the runner")

    monkeypatch.setattr(runner, "_execute", execute)
    monkeypatch.setattr(System, "run", around_the_runner)
    runner.disable_disk_cache()
    runner.disable_run_ledger()
    runner.clear_cache()
    runner.reset_accounting()
    yield seen
    runner.clear_cache()
    runner.reset_accounting()


def test_sixteen_matrix_experiments():
    assert len(MATRIX_ENTRIES) == 16


@pytest.mark.parametrize("name", MATRIX_ENTRIES)
def test_experiment_is_one_batch(name, batches):
    EXPERIMENTS[name].run()
    [batch] = batches
    assert len(set(batch)) == len(batch)
    accounting = runner.accounting()
    assert accounting.simulations == len(batch)
    assert accounting.memo_hits == 0
    assert accounting.disk_hits == 0


def test_run_matrix_keys_results_as_given(batches):
    host = RunRequest.single("HG", "small", DispatchPolicy.HOST_ONLY)
    pim = RunRequest.single("HG", "small", DispatchPolicy.PIM_ONLY)
    runs = run_matrix({"host": host, "pim": pim, "again": host})
    assert [result.policy for result in runs.values()] == [
        "host-only", "pim-only", "host-only"]
    assert runs["again"] is runs["host"]
    settings = runner.current_settings()
    assert batches == [[host.resolve(settings), pim.resolve(settings)]]
    with pytest.raises(KeyError):
        runs["outside"]
