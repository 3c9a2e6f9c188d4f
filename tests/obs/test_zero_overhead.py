"""Telemetry must never perturb the simulation.

Hooks only observe — they never return values into the timing model — so a
run with full telemetry attached must produce an identical RunResult to a
bare run of the same workload, and a bare run must carry only the shared
NULL_OBS singleton (no per-run observability allocation) and never reach a
hook or build a trace event.
"""

from repro.core.dispatch import DispatchPolicy
from repro.obs.hooks import NULL_OBS, NullObs
from repro.obs.telemetry import Telemetry
from repro.system.config import tiny_config
from repro.system.system import System
from repro.workloads.analytics.histogram import Histogram
from repro.workloads.graph.pagerank import PageRank


def run_once(telemetry=None, policy=DispatchPolicy.LOCALITY_AWARE):
    system = System(tiny_config(), policy, telemetry=telemetry)
    return system.run(Histogram(n_values=2000), max_ops_per_thread=300)


class TestZeroOverhead:
    def test_results_identical_with_and_without_telemetry(self):
        bare = run_once()
        instrumented = run_once(telemetry=Telemetry(interval=1_000.0))
        assert instrumented.cycles == bare.cycles
        assert instrumented.instructions == bare.instructions
        assert instrumented.per_core_instructions == \
            bare.per_core_instructions
        assert instrumented.stats == bare.stats
        assert instrumented.energy.total_pj == bare.energy.total_pj

    def test_identical_under_every_policy(self):
        for policy in (DispatchPolicy.HOST_ONLY, DispatchPolicy.PIM_ONLY,
                       DispatchPolicy.LOCALITY_BALANCED):
            bare = run_once(policy=policy)
            instrumented = run_once(telemetry=Telemetry(interval=500.0),
                                    policy=policy)
            assert instrumented.stats == bare.stats, policy

    def test_bare_system_uses_shared_null_obs(self):
        system = System(tiny_config(), DispatchPolicy.LOCALITY_AWARE)
        machine = system.machine
        assert machine.executor.obs is NULL_OBS
        assert machine.pmu.obs is NULL_OBS
        assert machine.hmc.obs is NULL_OBS
        assert machine.hmc.channel.obs is NULL_OBS
        assert all(vault.obs is NULL_OBS for vault in machine.hmc.vaults)

    def test_telemetry_attaches_live_obs_everywhere(self):
        telemetry = Telemetry()
        system = System(tiny_config(), DispatchPolicy.LOCALITY_AWARE,
                        telemetry=telemetry)
        machine = system.machine
        assert machine.executor.obs is telemetry
        assert machine.pmu.obs is telemetry
        assert machine.hmc.obs is telemetry
        assert machine.hmc.channel.obs is telemetry
        assert all(vault.obs is telemetry for vault in machine.hmc.vaults)

    def test_bare_run_builds_no_events_and_calls_no_hook(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the disabled path reached observability")

        monkeypatch.setattr("repro.core.executor.PeiTrace", boom)
        monkeypatch.setattr("repro.core.executor.FenceTrace", boom)
        for hook in ("count", "observe", "pei", "fence"):
            monkeypatch.setattr(NullObs, hook, boom)
        stats = {}
        for policy in DispatchPolicy:
            for workload in (PageRank(n_vertices=200, avg_degree=4.0,
                                      seed=11, iterations=1),
                             Histogram(n_values=20_000)):
                result = System(tiny_config(), policy).run(
                    workload, max_ops_per_thread=1000)
                for key, value in result.stats.items():
                    stats[policy, key] = stats.get((policy, key), 0.0) + value
        # The runs reached every emission site: pfences, both execution
        # sides, and both outcomes of balanced dispatch.
        balanced = DispatchPolicy.LOCALITY_BALANCED
        assert all(stats.get((policy, "pei.pfences"), 0.0) > 0
                   for policy in DispatchPolicy)
        assert stats[DispatchPolicy.HOST_ONLY, "pei.host_executed"] > 0
        assert stats[DispatchPolicy.PIM_ONLY, "pei.mem_executed"] > 0
        assert stats[balanced, "pei.balanced_host_overrides"] > 0
        assert stats[balanced, "pei.mem_dispatched"] > 0
