"""Microbenchmarks of the simulator itself (not a paper experiment).

Measures the throughput of the hot paths — the run engine, the cache
hierarchy, the PIM directory and locality monitor — so performance
regressions in the library are caught alongside the reproduction results.
Unlike the figure benches these use multiple rounds: they are fast and
their wall time IS the measurement.
"""

import pytest

from repro.bench.microbench import capture_engine_trace
from repro.core.dispatch import DispatchPolicy
from repro.core.locality_monitor import LocalityMonitor
from repro.core.pim_directory import PimDirectory
from repro.system.config import tiny_config
from repro.system.system import System


@pytest.fixture(scope="module")
def engine_trace():
    """One capture shared by every replay round (capture cost excluded)."""
    return capture_engine_trace()


def test_engine_throughput(benchmark, engine_trace):
    """End-to-end engine throughput: trace replay, the runner's hot path.

    This is the number ``python -m repro.bench history --compare`` tracks
    (via :func:`repro.bench.microbench.engine_ops_per_second`, which uses
    the same workload and replay path).
    """

    def run():
        system = System(tiny_config(), DispatchPolicy.LOCALITY_AWARE)
        return system.run(engine_trace)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.instructions > 0


def test_hierarchy_accesses(benchmark):
    """Raw cache-hierarchy accesses per second."""
    system = System(tiny_config(), DispatchPolicy.HOST_ONLY)
    hierarchy = system.hierarchy

    def run():
        t = 0.0
        for i in range(20_000):
            hierarchy.access(i % 4, (i * 8191) % (1 << 22), i % 7 == 0, t)
            t += 1.0

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_pim_directory_throughput(benchmark):
    directory = PimDirectory()

    def run():
        t = 0.0
        for i in range(50_000):
            entry, grant = directory.acquire(i % 4096, i % 3 == 0, t)
            directory.release(entry, i % 3 == 0, grant + 50.0)
            t += 1.0

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_locality_monitor_throughput(benchmark):
    monitor = LocalityMonitor(n_sets=1024, n_ways=16)

    def run():
        for i in range(50_000):
            block = (i * 2654435761) % (1 << 20)
            if i % 2:
                monitor.observe_llc_access(block)
            else:
                monitor.advise_host(block)

    benchmark.pedantic(run, rounds=3, iterations=1)
