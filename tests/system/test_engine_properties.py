"""Property-based tests for the run engine.

Hypothesis generates random multi-threaded operation scripts (with aligned
barrier phases) and checks the engine's global invariants: termination,
monotonic time, conservation of operation counts, and barrier correctness.

The cross-engine property holds every way of running a fixed stream to
one result: ``System.run(workload)``, scalar replay of its captured trace
and the default (columnar where the plan applies) replay must produce
byte-identical ``RunResult.to_dict()`` under every dispatch policy,
replacement policy, ops cap and warm-start setting.  The scripts are fixed
streams, not algorithms, so a schedule-dependent workload cannot hide an
engine bug here.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dispatch import DispatchPolicy
from repro.core.isa import FP_ADD, INT_MIN, PIM_OPS
from repro.cpu.trace import (Barrier, Compute, Load, PFence, Pei, Store,
                             capture_trace)
from repro.system.config import tiny_config
from repro.system.system import System
from repro.vm.address_space import AddressSpace
from repro.workloads.base import Workload

BASE = 0x40000
PAGE = tiny_config().page_size

#: Barrier-group layouts: one thread, two solo threads, two pairs, four
#: solo threads, and one group of four.
GROUP_LAYOUTS = ([0], [0, 1], [0, 0, 1, 1], [0, 1, 2, 3], [0, 0, 0, 0])


class GeneratedWorkload(Workload):
    name = "generated"

    def __init__(self, phases, region_sizes=(1 << 16,), groups=None,
                 final_barrier=True):
        super().__init__()
        self.phases = phases  # phases[p][t] = list of ops for thread t
        self.region_sizes = region_sizes
        self.groups = groups
        self.final_barrier = final_barrier

    def prepare(self, space):
        self.space = space
        for index, size in enumerate(self.region_sizes):
            space.alloc(f"data{index}", size)

    def barrier_groups(self, n_threads):
        if self.groups is None:
            return super().barrier_groups(n_threads)
        return list(self.groups)

    def make_threads(self, n_threads):
        groups = self.barrier_groups(n_threads)

        def thread(t):
            for index, phase in enumerate(self.phases):
                ops = phase[t % len(phase)]
                for op in ops:
                    yield op
                if self.final_barrier or index < len(self.phases) - 1:
                    yield Barrier(groups[t])
        return [thread(t) for t in range(n_threads)]


def op_strategy():
    addr = st.integers(0, 255).map(lambda i: BASE + 64 * i)
    return st.one_of(
        st.builds(Compute, st.integers(1, 8)),
        st.builds(Load, addr, st.booleans()),
        st.builds(Store, addr),
        addr.map(lambda a: Pei(FP_ADD, a)),
        addr.map(lambda a: Pei(INT_MIN, a)),
        st.just(PFence()),
    )


phase_strategy = st.lists(  # one phase: 4 scripts of 0..12 ops
    st.lists(op_strategy(), min_size=0, max_size=12),
    min_size=4, max_size=4,
)


@st.composite
def scripted_workloads(draw):
    """A GeneratedWorkload over 1-3 regions with partial last pages.

    Addresses land inside the regions (the tail of a partial last page
    included) and, in some scripts, on pages outside every region — which
    the columnar engine cannot plan, so replay falls back to scalar.
    """
    groups = draw(st.sampled_from(GROUP_LAYOUTS))
    sizes = draw(st.lists(st.integers(1, 3 * PAGE), min_size=1, max_size=3))
    space = AddressSpace(page_size=PAGE)
    regions = [space.alloc(f"data{i}", size) for i, size in enumerate(sizes)]
    pages = [range(region.base, region.base
                   + (region.size + PAGE - 1) // PAGE * PAGE)
             for region in regions]
    inside = st.sampled_from(pages).flatmap(st.sampled_from)
    if draw(st.booleans()):
        beyond = range(pages[-1].stop + PAGE, pages[-1].stop + 3 * PAGE)
        addr = st.one_of(inside, inside, inside, st.sampled_from(beyond))
    else:
        addr = inside
    pei = st.builds(
        lambda mnemonic, a, wait, chain: Pei(PIM_OPS[mnemonic], a,
                                              wait_output=wait, chain=chain),
        st.sampled_from(sorted(PIM_OPS)), addr,
        st.sampled_from([None, True, False]),
        st.one_of(st.none(), st.integers(0, 3)))
    ops = st.one_of(
        st.builds(Compute, st.integers(1, 8)),
        st.builds(Load, addr, st.booleans()),
        st.builds(Store, addr),
        pei, pei,
        st.just(PFence()),
    )
    phases = draw(st.lists(
        st.lists(st.lists(ops, max_size=10),
                 min_size=len(groups), max_size=len(groups)),
        min_size=1, max_size=3))
    return GeneratedWorkload(phases, region_sizes=sizes, groups=groups,
                             final_barrier=draw(st.booleans()))


run_settings = st.fixed_dictionaries({
    "policy": st.sampled_from(list(DispatchPolicy)),
    "replacement": st.sampled_from(["lru", "fifo", "random"]),
    "cap": st.one_of(st.none(), st.integers(1, 30)),
    "warm_start": st.booleans(),
})


def canon(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


@settings(max_examples=400, deadline=None)
@given(scripted_workloads(), run_settings)
def test_direct_and_replayed_runs_identical(workload, run):
    """Direct, scalar-replayed and default-replayed runs are byte-identical."""
    config = tiny_config(cache_replacement_policy=run["replacement"])
    policy, cap, warm = run["policy"], run["cap"], run["warm_start"]
    n_threads = len(workload.groups)
    direct = System(config, policy).run(
        workload, max_ops_per_thread=cap, n_threads=n_threads,
        warm_start=warm)
    trace = capture_trace(workload, n_threads, cap, config.page_size)
    scalar = System(config, policy).run(trace, warm_start=warm,
                                        engine="scalar")
    default = System(config, policy).run(trace, warm_start=warm)
    assert canon(scalar) == canon(direct)
    assert canon(default) == canon(direct)


@settings(max_examples=25, deadline=None)
@given(st.lists(phase_strategy, min_size=1, max_size=3))
def test_engine_terminates_with_consistent_state(phases):
    system = System(tiny_config(), DispatchPolicy.LOCALITY_AWARE)
    workload = GeneratedWorkload(phases)
    result = system.run(workload)
    # Termination with every core at a finite, non-negative time.
    assert all(core.time >= 0 for core in system.cores)
    assert result.cycles >= 0
    # Conservation: every emitted memory op and PEI was accounted.
    expected_loads = sum(sum(1 for op in phase[t] if isinstance(op, Load))
                         for phase in phases for t in range(4))
    expected_peis = sum(sum(1 for op in phase[t] if isinstance(op, Pei))
                        for phase in phases for t in range(4))
    assert result.stats.get("core.loads", 0) == expected_loads
    assert result.stats.get("pei.issued", 0) == expected_peis
    # Cache invariants survive arbitrary interleavings.
    assert system.hierarchy.check_inclusion() == []
    assert system.hierarchy.check_single_writer() == []


@settings(max_examples=15, deadline=None)
@given(st.lists(phase_strategy, min_size=1, max_size=2),
       st.integers(1, 10))
def test_op_cap_never_deadlocks(phases, cap):
    """Capping threads mid-phase must release barrier waiters, not hang."""
    system = System(tiny_config(), DispatchPolicy.LOCALITY_AWARE)
    result = system.run(GeneratedWorkload(phases), max_ops_per_thread=cap)
    assert result.cycles >= 0


@settings(max_examples=10, deadline=None)
@given(st.lists(phase_strategy, min_size=1, max_size=2))
def test_policies_preserve_op_counts(phases):
    """The execution policy never changes how much work the cap admits."""
    counts = []
    for policy in (DispatchPolicy.HOST_ONLY, DispatchPolicy.PIM_ONLY):
        system = System(tiny_config(), policy)
        result = system.run(GeneratedWorkload(phases), max_ops_per_thread=20)
        counts.append((result.stats.get("core.loads", 0),
                       result.stats.get("pei.issued", 0)))
    assert counts[0] == counts[1]
