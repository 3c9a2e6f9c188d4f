"""Unit and property tests for the set-associative tag array."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.array import SetAssocArray


class TestGeometry:
    def test_from_geometry(self):
        array = SetAssocArray.from_geometry(64 * 1024, 16, 64)
        assert array.n_sets == 64
        assert array.n_ways == 16

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            SetAssocArray(3, 4)

    def test_rejects_zero_ways(self):
        with pytest.raises(ValueError):
            SetAssocArray(4, 0)


class TestBasicOperation:
    def test_miss_then_hit(self):
        array = SetAssocArray(4, 2)
        assert not array.lookup(10)
        array.insert(10)
        assert array.lookup(10)

    def test_lru_eviction(self):
        array = SetAssocArray(1, 2)
        array.insert(0)
        array.insert(1)
        victim = array.insert(2)
        assert victim == (0, False)  # oldest way evicted
        assert not array.contains(0)
        assert array.contains(1) and array.contains(2)

    def test_lookup_promotes(self):
        array = SetAssocArray(1, 2)
        array.insert(0)
        array.insert(1)
        array.lookup(0)  # promote 0 to MRU
        victim = array.insert(2)
        assert victim == (1, False)

    def test_lookup_without_promote(self):
        array = SetAssocArray(1, 2)
        array.insert(0)
        array.insert(1)
        array.lookup(0, promote=False)
        victim = array.insert(2)
        assert victim == (0, False)

    def test_contains_no_side_effects(self):
        array = SetAssocArray(1, 2)
        array.insert(0)
        array.insert(1)
        array.contains(0)  # must not promote
        victim = array.insert(2)
        assert victim == (0, False)

    def test_reinsert_promotes_and_keeps_dirty(self):
        array = SetAssocArray(1, 2)
        array.insert(0, dirty=True)
        array.insert(1)
        assert array.insert(0) is None  # already present
        assert array.is_dirty(0)  # dirtiness retained
        victim = array.insert(2)
        assert victim == (1, False)

    def test_sets_are_independent(self):
        array = SetAssocArray(2, 1)
        array.insert(0)  # set 0
        array.insert(1)  # set 1
        assert array.contains(0) and array.contains(1)


class TestDirtyTracking:
    def test_dirty_victim_reported(self):
        array = SetAssocArray(1, 1)
        array.insert(0, dirty=True)
        assert array.insert(1) == (0, True)

    def test_mark_and_clean(self):
        array = SetAssocArray(4, 2)
        array.insert(5)
        array.mark_dirty(5)
        assert array.is_dirty(5)
        array.mark_clean(5)
        assert not array.is_dirty(5)

    def test_mark_absent_is_noop(self):
        array = SetAssocArray(4, 2)
        array.mark_dirty(5)
        assert not array.contains(5)

    def test_remove_returns_dirty(self):
        array = SetAssocArray(4, 2)
        array.insert(5, dirty=True)
        assert array.remove(5) is True
        assert array.remove(5) is None


class TestStatistics:
    def test_hit_miss_counters(self):
        array = SetAssocArray(4, 2)
        assert array.lookup(1) is False
        array.insert(1)
        assert array.lookup(1) is True

    def test_occupancy(self):
        array = SetAssocArray(4, 2)
        assert array.occupancy() == 0
        array.insert(1)
        array.insert(2)
        assert array.occupancy() == 2

    def test_clear(self):
        array = SetAssocArray(4, 2)
        array.insert(1)
        array.clear()
        assert array.occupancy() == 0


class ReferenceLru:
    """Golden model: per-set list in LRU order."""

    def __init__(self, n_sets, n_ways):
        self.n_sets = n_sets
        self.n_ways = n_ways
        self.sets = [[] for _ in range(n_sets)]

    def touch(self, block):
        s = self.sets[block % self.n_sets]
        if block in s:
            s.remove(block)
            s.append(block)
            return True
        s.append(block)
        if len(s) > self.n_ways:
            s.pop(0)
        return False


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
def test_matches_reference_lru(blocks):
    """insert+lookup behaviour equals a straightforward LRU golden model."""
    array = SetAssocArray(4, 4)
    ref = ReferenceLru(4, 4)
    for block in blocks:
        ref_hit = ref.touch(block)
        model_hit = array.lookup(block)
        if not model_hit:
            array.insert(block)
        assert model_hit == ref_hit
    for s in range(4):
        for block in ref.sets[s]:
            assert array.contains(block)


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300))
def test_occupancy_never_exceeds_capacity(blocks):
    array = SetAssocArray(8, 2)
    for block in blocks:
        array.insert(block)
    assert array.occupancy() <= 8 * 2
    for line_set in array.sets:
        assert len(line_set) <= 2
