"""Tests for cache warm-start: state equivalence and zero charged stats.

``System.run(warm_start=True)`` emulates the paper's methodology of
measuring after initialization: the warming sweep populates the L3 and the
locality monitor but promises that "no statistics or timing are charged".
A footprint larger than the monitor (the normal case — HG small allocates
tens of thousands of blocks against the tiny config's 1024 monitor entries)
used to break that promise by counting every warming-time monitor eviction
into ``locality_monitor.evictions``.

``System._warm_caches`` computes the LRU sweep's final state from its last
touches instead of replaying every block; the equivalence tests below hold
it to the naive per-block sweep kept here as the reference.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dispatch import DispatchPolicy
from repro.system.config import tiny_config
from repro.system.system import System
from repro.vm.address_space import AddressSpace
from repro.workloads.registry import WORKLOAD_NAMES, make_workload

#: Far more blocks than the tiny config's L3/monitor (64 KB -> 1024 blocks),
#: so warming must evict — the condition under which the old code charged
#: stats.
BIG_FOOTPRINT = dict(n_values=100_000)


def _prepared_spans(system, workload):
    space = AddressSpace(page_size=system.config.page_size)
    workload.prepare(space)
    return [(region.base, region.end) for region in space.regions.values()]


class TestWarmStartStats:
    def test_warming_charges_zero_stats(self):
        system = System(tiny_config(), DispatchPolicy.LOCALITY_AWARE)
        workload = make_workload("HG", "small", seed=7, **BIG_FOOTPRINT)
        system._warm_caches(_prepared_spans(system, workload))
        charged = {k: v for k, v in system.machine.stats.to_dict().items()
                   if v != 0}
        assert charged == {}

    def test_warming_still_populates_state(self):
        """Suspension must drop the *stats*, not the warming itself."""
        system = System(tiny_config(), DispatchPolicy.LOCALITY_AWARE)
        workload = make_workload("HG", "small", seed=7, **BIG_FOOTPRINT)
        system._warm_caches(_prepared_spans(system, workload))
        monitor_entries = sum(len(s) for s in system.machine.monitor._sets)
        assert monitor_entries > 0

    def test_footprint_actually_overflows_monitor(self):
        """Sanity: the same sweep *outside* suspension does evict.

        This is what makes test_warming_charges_zero_stats a real
        regression test — the workload is big enough that the unsuspended
        pre-fix path charged evictions by the thousand.
        """
        system = System(tiny_config(), DispatchPolicy.LOCALITY_AWARE)
        workload = make_workload("HG", "small", seed=7, **BIG_FOOTPRINT)
        space = AddressSpace(page_size=system.config.page_size)
        workload.prepare(space)
        machine = system.machine
        block_size = system.config.block_size
        for region in space.regions.values():
            for vaddr in range(region.base, region.end, block_size):
                block = (machine.page_table.translate(vaddr)
                         >> machine.hierarchy.block_bits)
                machine.monitor.observe_llc_access(block)
        assert machine.stats["locality_monitor.evictions"] > 0

    def test_full_run_stats_exclude_warming(self):
        """End to end: warm and cold runs count the same eviction events."""
        workload = make_workload("HG", "small", seed=7, **BIG_FOOTPRINT)
        warm = System(tiny_config(), DispatchPolicy.LOCALITY_AWARE)
        warm_result = warm.run(workload, max_ops_per_thread=50,
                               warm_start=True)
        assert warm_result.cycles > 0
        # Warming sweeps ~40k blocks through the 1024-entry monitor; had any
        # of it been charged, evictions would exceed the 200-op run's own
        # event count by orders of magnitude.
        measured = warm.machine.stats["locality_monitor.evictions"]
        assert measured < 10_000


def reference_warm(system, spans):
    """The initialization sweep, block by block, as the generic paths see
    it: translate, insert clean into the L3, mirror into the monitor."""
    machine = system.machine
    monitor = machine.monitor if system.policy.uses_monitor else None
    block_bits = machine.hierarchy.block_bits
    with machine.stats.suspended():
        for base, end in spans:
            for vaddr in range(base, end, system.config.block_size):
                block = machine.page_table.translate(vaddr) >> block_bits
                machine.hierarchy.l3.insert(block, dirty=False)
                if monitor is not None:
                    monitor.observe_llc_access(block)


def warm_state(system):
    """Everything warming may touch, in LRU order where order matters."""
    machine = system.machine
    l3 = machine.hierarchy.l3
    page_table = machine.page_table
    return {
        "l3_sets": [list(s.items()) for s in l3.sets],
        "l3_victim_seed": l3._victim_seed,
        "monitor_sets": [list(s.items()) for s in machine.monitor._sets],
        "mapping": list(page_table._mapping.items()),
        "paging": (page_table._next_sequence, page_table.page_faults),
        "charged": {k: v for k, v in machine.stats.to_dict().items() if v},
    }


def assert_warms_like_reference(config, policy, spans, prior=None):
    warmed, reference = System(config, policy), System(config, policy)
    if prior is not None:
        # A reused machine: state (and page mappings) already present.
        warmed._warm_caches(prior)
        reference_warm(reference, prior)
    warmed._warm_caches(spans)
    reference_warm(reference, spans)
    state = warm_state(warmed)
    assert state == warm_state(reference)
    assert state["charged"] == {}


PAGE_SIZES = (256, 4096)


@st.composite
def region_layouts(draw):
    """Page-aligned spans, as AddressSpace lays them out, with partial
    last pages, gaps and overlaps between spans."""
    page_size = draw(st.sampled_from(PAGE_SIZES))
    spans = []
    for _ in range(draw(st.integers(1, 5))):
        base = draw(st.integers(0, 24)) * page_size
        spans.append((base, base + draw(st.integers(1, 3 * page_size))))
    return page_size, spans


class TestWarmEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(layout=region_layouts(),
           l3_sets=st.sampled_from((1, 2, 4, 16)),
           l3_ways=st.sampled_from((1, 2, 4, 16)),
           tag_bits=st.sampled_from((1, 2, 10, 48)),
           replacement=st.sampled_from(("lru", "fifo", "random")),
           policy=st.sampled_from((DispatchPolicy.LOCALITY_AWARE,
                                   DispatchPolicy.HOST_ONLY)),
           reuse=st.booleans())
    def test_matches_per_block_sweep(self, layout, l3_sets, l3_ways,
                                     tag_bits, replacement, policy, reuse):
        page_size, spans = layout
        config = tiny_config(
            l3_size=l3_sets * l3_ways * 64, l3_ways=l3_ways, page_size=page_size,
            locality_monitor_partial_tag_bits=tag_bits,
            cache_replacement_policy=replacement)
        prior = spans[::-1][:2] if reuse else None
        assert_warms_like_reference(config, policy, spans, prior)

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_matches_per_block_sweep_on_workload_layouts(self, name):
        config = tiny_config()
        workload = make_workload(name, "small", seed=7)
        spans = _prepared_spans(System(config), workload)
        assert_warms_like_reference(config, DispatchPolicy.LOCALITY_AWARE,
                                    spans)
