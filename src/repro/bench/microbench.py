"""Engine microbenchmark: the simulator's own ops/sec, measured one way.

One synthetic workload (:class:`EngineMicroload`, an even mix of PEIs,
loads and compute over a 1 MiB footprint) and one measurement protocol
(:func:`engine_ops_per_second`: capture once, replay N rounds, take the
*minimum* wall time) shared by every consumer that cares about harness
throughput:

* ``benchmarks/test_simulator_microbench.py`` (pytest-benchmark timing);
* ``python -m repro.bench run`` — every trajectory record embeds the
  measurement, so ``python -m repro.bench history --compare`` can flag
  engine-throughput regressions against earlier records; and
* the CI ``perf-smoke`` job, which runs exactly that pair.

Minimum-of-rounds is deliberate: on a noisy box the distribution's left
edge tracks the code's cost, the right edge tracks the machine's load.
"""

import time
from typing import Dict, Optional

from repro.core.dispatch import DispatchPolicy
from repro.core.isa import FP_ADD
from repro.cpu.trace import CompiledTrace, Compute, Load, Pei, capture_trace
from repro.system.config import tiny_config
from repro.system.system import System
from repro.workloads.base import Workload

__all__ = ["EngineMicroload", "capture_engine_trace", "engine_ops_per_second"]


class EngineMicroload(Workload):
    """Mixed PEI/load/compute stream with a cache-straddling footprint."""

    name = "engine-micro"

    def __init__(self, n_ops: int = 4000):
        super().__init__()
        self.n_ops = n_ops

    def prepare(self, space):
        self.space = space
        self.region = space.alloc("data", 1 << 20)

    def make_threads(self, n_threads):
        def thread(t):
            base = self.region.base
            for i in range(self.n_ops):
                addr = base + ((i * 2654435761 + t) % (1 << 20)) // 64 * 64
                if i % 3 == 0:
                    yield Pei(FP_ADD, addr)
                elif i % 3 == 1:
                    yield Load(addr)
                else:
                    yield Compute(4)
        return [thread(t) for t in range(n_threads)]


def capture_engine_trace(n_ops: int = 4000) -> CompiledTrace:
    """The microload compiled for the tiny config (capture cost excluded
    from every measurement round)."""
    config = tiny_config()
    return capture_trace(EngineMicroload(n_ops), n_threads=config.n_cores,
                         page_size=config.page_size)


def engine_ops_per_second(
    rounds: int = 3,
    n_ops: int = 4000,
    trace: Optional[CompiledTrace] = None,
    engine: str = "auto",
) -> Dict[str, float]:
    """Measure engine replay throughput under the locality-aware policy.

    Returns ``{"ops_per_second", "ms_per_run", "instructions", "rounds"}``
    where ``ops_per_second`` is simulated instructions retired per
    wall-second over the best of ``rounds`` replays.  ``engine`` picks the
    replay engine (``"auto"``/``"scalar"``/``"columnar"``) so regressions
    can be localized; the minimum-of-rounds protocol keeps the columnar
    plan compilation (a one-time cost, cached across rounds) out of the
    reported figure, matching how sweeps amortize it.
    """
    if trace is None:
        trace = capture_engine_trace(n_ops)
    best = float("inf")
    instructions = 0.0
    for _ in range(rounds):
        system = System(tiny_config(), DispatchPolicy.LOCALITY_AWARE)
        t0 = time.perf_counter()  # simflow: ignore[SIM001] -- measures the simulator's own host cost; never feeds simulated time
        result = system.run(trace, engine=engine)
        elapsed = time.perf_counter() - t0  # simflow: ignore[SIM001] -- measures the simulator's own host cost; never feeds simulated time
        instructions = result.instructions
        if elapsed < best:
            best = elapsed
    return {
        "ops_per_second": instructions / best if best > 0 else 0.0,
        "ms_per_run": best * 1000.0,
        "instructions": instructions,
        "rounds": rounds,
    }
