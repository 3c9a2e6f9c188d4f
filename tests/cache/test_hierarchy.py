"""Unit and property tests for the inclusive MESI-lite cache hierarchy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import CacheHierarchy
from repro.mem.address_map import AddressMap
from repro.mem.dram import DramTimings
from repro.mem.hmc import HmcSystem
from repro.mem.link import OffChipChannel
from repro.sim.stats import Stats
from repro.system.config import SystemConfig
from repro.xbar.crossbar import Crossbar

N_CORES = 4


def make_hierarchy(l3_sets=16, l3_ways=2):
    stats = Stats()
    hmc = HmcSystem(
        AddressMap(n_hmcs=2, vaults_per_hmc=4, banks_per_vault=4),
        DramTimings.from_config(SystemConfig()),
        OffChipChannel(10.0, 10.0),
        tsv_bytes_per_cycle=4.0,
        stats=stats,
    )
    hierarchy = CacheHierarchy(
        n_cores=N_CORES,
        block_size=64,
        l1_sets=2, l1_ways=2,
        l2_sets=4, l2_ways=2,
        l3_sets=l3_sets, l3_ways=l3_ways,
        l1_latency=4, l2_latency=12, l3_latency=30,
        l3_banks=2, l3_bank_occupancy=2.0,
        crossbar=Crossbar(N_CORES + 2, 9.0, 6.0),
        hmc=hmc,
        stats=stats,
    )
    return hierarchy, stats


def addr(block):
    return block * 64


#: The counter each servicing level moves: exactly one moves per access.
LEVEL_COUNTERS = {"l1": "l1.hits", "l2": "l2.hits", "l3": "l3.hits",
                  "mem": "l3.misses"}


def access_level(h, stats, core, address, is_write, time):
    """Run one access; return its finish time and the level that served it,
    read off the per-level hit counters' deltas."""
    before = {level: stats[key] for level, key in LEVEL_COUNTERS.items()}
    finish = h.access(core, address, is_write, time)
    moved = [level for level, key in LEVEL_COUNTERS.items()
             if stats[key] != before[level]]
    assert len(moved) == 1, moved
    return finish, moved[0]


class TestBasicPath:
    def test_cold_miss_goes_to_memory(self):
        h, stats = make_hierarchy()
        _, level = access_level(h, stats, 0, addr(1), False, 0.0)
        assert level == "mem"
        assert stats["dram.reads"] == 1

    def test_fill_creates_l1_hit(self):
        h, stats = make_hierarchy()
        h.access(0, addr(1), False, 0.0)
        finish, level = access_level(h, stats, 0, addr(1), False, 100.0)
        assert level == "l1"
        assert finish - 100.0 == pytest.approx(4.0)

    def test_other_core_hits_l3(self):
        h, stats = make_hierarchy()
        h.access(0, addr(1), False, 0.0)
        _, level = access_level(h, stats, 1, addr(1), False, 1000.0)
        assert level == "l3"

    def test_l2_hit_after_l1_eviction(self):
        h, stats = make_hierarchy()
        # Fill L1 set 0 beyond capacity: blocks 0, 2, 4 share L1 set 0
        # (2 sets) but spread across L2's 4 sets, so the L1 victim
        # (block 0) survives in the L2.
        h.access(0, addr(0), False, 0.0)
        h.access(0, addr(2), False, 0.0)
        h.access(0, addr(4), False, 0.0)  # evicts block 0 from L1
        _, level = access_level(h, stats, 0, addr(0), False, 1000.0)
        assert level == "l2"

    def test_memory_latency_exceeds_l3(self):
        h, _ = make_hierarchy()
        miss = h.access(0, addr(1), False, 0.0)
        h2, _ = make_hierarchy()
        h2.access(0, addr(1), False, 0.0)
        l3_hit = h2.access(1, addr(1), False, 10000.0)
        assert (miss - 0.0) > (l3_hit - 10000.0)


class TestCoherence:
    def test_write_invalidates_other_sharers(self):
        h, stats = make_hierarchy()
        h.access(0, addr(1), False, 0.0)
        h.access(1, addr(1), False, 100.0)
        h.access(0, addr(1), True, 200.0)  # core 0 upgrades
        assert stats["coherence.invalidations"] >= 1
        # Core 1 must re-fetch (no L1/L2 hit possible).
        _, level = access_level(h, stats, 1, addr(1), False, 300.0)
        assert level == "l3"

    def test_dirty_copy_serviced_cache_to_cache(self):
        h, stats = make_hierarchy()
        h.access(0, addr(1), True, 0.0)  # core 0 owns dirty
        _, level = access_level(h, stats, 1, addr(1), False, 1000.0)
        assert level == "l3"
        assert stats["coherence.cache_to_cache"] == 1

    def test_read_leaves_previous_owner_clean_copy(self):
        h, stats = make_hierarchy()
        h.access(0, addr(1), True, 0.0)
        h.access(1, addr(1), False, 1000.0)
        # Core 0 still hits L1 (downgraded to shared/clean).
        assert access_level(h, stats, 0, addr(1), False, 2000.0)[1] == "l1"
        assert not h.l1[0].is_dirty(1)

    def test_write_after_remote_dirty_invalidates_owner(self):
        h, _ = make_hierarchy()
        h.access(0, addr(1), True, 0.0)
        h.access(1, addr(1), True, 1000.0)
        assert h.owner.get(1) == 1
        assert not h.l1[0].contains(1)

    def test_single_writer_invariant_after_writes(self):
        h, _ = make_hierarchy()
        for core in range(N_CORES):
            h.access(core, addr(7), True, core * 100.0)
        assert h.check_single_writer() == []


class TestInclusion:
    def test_l3_eviction_back_invalidates_privates(self):
        h, stats = make_hierarchy(l3_sets=1, l3_ways=2)
        h.access(0, addr(0), False, 0.0)
        h.access(0, addr(1), False, 100.0)
        h.access(0, addr(2), False, 200.0)  # L3 evicts block 0
        assert not h.l3.contains(0)
        assert not h.l1[0].contains(0)
        assert stats["coherence.back_invalidations"] >= 1
        assert h.check_inclusion() == []

    def test_dirty_l3_victim_written_back(self):
        h, stats = make_hierarchy(l3_sets=1, l3_ways=2)
        h.access(0, addr(0), True, 0.0)
        h.access(1, addr(1), False, 100.0)
        h.access(2, addr(2), False, 200.0)  # evicts dirty block 0
        assert stats["dram.writes"] >= 1


class TestFlushBlock:
    def test_flush_absent_block_is_free(self):
        h, _ = make_hierarchy()
        ready, wrote = h.flush_block(99, invalidate=True, time=10.0)
        assert ready == 10.0
        assert wrote is False

    def test_back_invalidation_removes_everywhere(self):
        h, stats = make_hierarchy()
        h.access(0, addr(1), True, 0.0)
        ready, wrote = h.flush_block(1, invalidate=True, time=100.0)
        assert wrote is True  # dirty data had to reach memory
        assert ready > 100.0
        assert not h.present(1)
        assert stats["pmu.back_invalidations"] == 1

    def test_back_writeback_keeps_clean_copies(self):
        h, stats = make_hierarchy()
        h.access(0, addr(1), True, 0.0)
        ready, wrote = h.flush_block(1, invalidate=False, time=100.0)
        assert wrote is True
        assert h.present(1)
        assert h.l1[0].contains(1)
        assert not h.l1[0].is_dirty(1)
        assert stats["pmu.back_writebacks"] == 1

    def test_clean_flush_writes_nothing(self):
        h, stats = make_hierarchy()
        h.access(0, addr(1), False, 0.0)
        _, wrote = h.flush_block(1, invalidate=False, time=100.0)
        assert wrote is False
        assert stats["dram.writes"] == 0

    def test_after_invalidate_next_access_misses(self):
        h, stats = make_hierarchy()
        h.access(0, addr(1), False, 0.0)
        h.flush_block(1, invalidate=True, time=100.0)
        assert access_level(h, stats, 0, addr(1), False, 200.0)[1] == "mem"


class TestObserver:
    def test_l3_observer_sees_l3_accesses_only(self):
        h, _ = make_hierarchy()
        seen = []
        h.l3_observer = seen.append
        h.access(0, addr(1), False, 0.0)  # L3 (miss) access
        h.access(0, addr(1), False, 10.0)  # L1 hit: not seen
        assert seen == [1]


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, N_CORES - 1), st.integers(0, 40), st.booleans()),
    min_size=1, max_size=150,
))
def test_invariants_hold_under_random_traffic(ops):
    """Inclusion and single-writer hold after any access sequence."""
    h, _ = make_hierarchy(l3_sets=4, l3_ways=2)
    t = 0.0
    for core, block, is_write in ops:
        h.access(core, addr(block), is_write, t)
        t += 10.0
    assert h.check_inclusion() == []
    assert h.check_single_writer() == []


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, N_CORES - 1), st.integers(0, 40),
              st.booleans(), st.booleans()),
    min_size=1, max_size=100,
))
def test_invariants_hold_with_interleaved_flushes(ops):
    """flush_block (back-inval/back-writeback) never breaks the invariants."""
    h, _ = make_hierarchy(l3_sets=4, l3_ways=2)
    t = 0.0
    for core, block, is_write, flush in ops:
        if flush:
            h.flush_block(block, invalidate=is_write, time=t)
            if is_write:
                assert not h.present(block)
        else:
            h.access(core, addr(block), is_write, t)
        t += 10.0
    assert h.check_inclusion() == []
    assert h.check_single_writer() == []
