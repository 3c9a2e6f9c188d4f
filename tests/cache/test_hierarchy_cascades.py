"""Eviction-cascade and writeback-path tests for the cache hierarchy."""

import pytest

from tests.cache.test_hierarchy import access_level, addr, make_hierarchy


class TestDirtyCascades:
    def test_dirty_l1_victim_lands_dirty_in_l2(self):
        h, _ = make_hierarchy()
        h.access(0, addr(0), True, 0.0)  # dirty block 0 in L1
        h.access(0, addr(2), False, 10.0)
        h.access(0, addr(4), False, 20.0)  # evicts block 0 from L1
        assert not h.l1[0].contains(0)
        assert h.l2[0].is_dirty(0)

    def test_dirty_l2_victim_marks_l3_dirty(self):
        h, stats = make_hierarchy()
        # Fill L2 set 0 (4 sets, 2 ways): blocks 0, 4, 8 all map to set 0.
        h.access(0, addr(0), True, 0.0)
        h.access(0, addr(4), False, 10.0)
        h.access(0, addr(8), False, 20.0)  # L2 evicts one of them
        # Block 0's dirtiness must survive somewhere below L1.
        dirty_somewhere = (h.l1[0].is_dirty(0) or h.l2[0].is_dirty(0)
                           or h.l3.is_dirty(0))
        assert dirty_somewhere

    def test_dirty_data_never_lost_through_full_cascade(self):
        """After arbitrary evictions, a written block is either dirty on
        chip or has been written back to memory."""
        h, stats = make_hierarchy(l3_sets=1, l3_ways=2)
        h.access(0, addr(0), True, 0.0)
        # Push blocks through the 1-set L3 to force block 0 all the way out.
        for i in range(1, 6):
            h.access(0, addr(i), False, i * 100.0)
        if not h.present(0):
            assert stats["dram.writes"] >= 1

    def test_writeback_traffic_counted_once(self):
        h, stats = make_hierarchy(l3_sets=1, l3_ways=1)
        h.access(0, addr(0), True, 0.0)
        h.access(0, addr(1), False, 100.0)  # evicts dirty block 0
        assert stats["dram.writes"] == 1
        assert stats["l3.writebacks"] == 1


class TestSharedReadPath:
    def test_read_sharing_keeps_all_copies(self):
        h, stats = make_hierarchy()
        for core in range(4):
            h.access(core, addr(7), False, core * 50.0)
        for core in range(4):
            assert access_level(h, stats, core, addr(7), False,
                                1000.0 + core)[1] == "l1"

    def test_sharer_set_tracks_cores(self):
        h, _ = make_hierarchy()
        h.access(0, addr(7), False, 0.0)
        h.access(2, addr(7), False, 10.0)
        assert h.sharers[7] == {0, 2}

    def test_sharer_removed_after_private_eviction(self):
        h, _ = make_hierarchy()
        h.access(0, addr(0), False, 0.0)
        # Push conflicting blocks through core 0's L1 and L2 set 0.
        for i in (4, 8, 12, 16, 20):
            h.access(0, addr(i), False, i * 10.0)
        if not (h.l1[0].contains(0) or h.l2[0].contains(0)):
            assert 0 not in h.sharers.get(0, set())


class TestLatencyOrdering:
    def test_levels_are_monotonically_slower(self):
        h, stats = make_hierarchy()
        h.access(0, addr(1), False, 0.0)
        l1, level = access_level(h, stats, 0, addr(1), False, 1000.0)
        assert level == "l1"
        h2, stats2 = make_hierarchy()
        h2.access(1, addr(1), False, 0.0)
        l3, level = access_level(h2, stats2, 0, addr(1), False, 1000.0)
        assert level == "l3"
        h3, stats3 = make_hierarchy()
        mem, level = access_level(h3, stats3, 0, addr(1), False, 1000.0)
        assert level == "mem"
        assert (l1 - 1000.0) < (l3 - 1000.0) < (mem - 1000.0)
