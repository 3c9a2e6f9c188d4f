"""Tests for the statistics registry."""

import pytest

from repro.sim.stat_keys import GAUGE_KEYS, SLOT_INDEX, SLOT_KEYS, is_declared
from repro.sim.stats import Stats


class TestStats:
    def test_default_zero(self):
        stats = Stats()
        assert stats["anything"] == 0.0
        assert stats.get("other", 5.0) == 5.0

    def test_add(self):
        stats = Stats()
        stats.add("l1.hits")
        stats.add("l1.hits", 2.5)
        assert stats["l1.hits"] == 3.5
        # The named add and the inline slot add are one counter.
        assert stats.slots[SLOT_INDEX["l1.hits"]] == 3.5

    def test_set_overwrites(self):
        stats = Stats()
        stats.set("runtime.cycles", 10)
        stats.set("runtime.cycles", 3)
        assert stats["runtime.cycles"] == 3

    def test_contains(self):
        stats = Stats()
        assert "l1.hits" not in stats
        assert "runtime.cycles" not in stats
        assert "never.declared" not in stats
        stats.add("l1.hits")
        stats.set("runtime.cycles", 1.0)
        assert "l1.hits" in stats
        assert "runtime.cycles" in stats

    def test_to_dict(self):
        stats = Stats()
        assert stats.to_dict() == {}
        stats.add("pei.issued", 2)
        stats.add("l1.accesses", 1)
        stats.set("runtime.cycles", 100.0)
        stats.set("tsv.bytes", 64.0)
        # Gauges first, in set order; then nonzero counters in slot order.
        assert list(stats.to_dict().items()) == [
            ("runtime.cycles", 100.0), ("tsv.bytes", 64.0),
            ("l1.accesses", 1.0), ("pei.issued", 2.0)]


class TestDeclaredKeysOnly:
    """An undeclared key fails at the call, not as a silent zero later."""

    def test_add_rejects_undeclared_key(self):
        with pytest.raises(KeyError):
            Stats().add("pei.host_dispatch")  # typo of pei.host_dispatched

    def test_add_rejects_gauge_key(self):
        with pytest.raises(KeyError):
            Stats().add("runtime.cycles", 1.0)

    def test_set_rejects_counter_and_undeclared_keys(self):
        stats = Stats()
        for name in ("l1.hits", "never.declared"):
            with pytest.raises(KeyError):
                stats.set(name, 1.0)
        assert stats.to_dict() == {}

    def test_every_declared_key_is_a_slot_or_a_gauge(self):
        assert not set(SLOT_KEYS) & set(GAUGE_KEYS)
        assert all(is_declared(key) for key in SLOT_KEYS + GAUGE_KEYS)
        assert not is_declared("never.declared")


class TestSuspended:
    def test_discards_adds_and_sets_inside_the_block(self):
        stats = Stats()
        slots = stats.slots
        stats.add("l3.hits", 2.0)
        stats.set("runtime.cycles", 5.0)
        with stats.suspended():
            slots[SLOT_INDEX["l3.hits"]] += 7.0
            stats.add("dram.reads")
            stats.set("runtime.cycles", 99.0)
            stats.set("tsv.bytes", 64.0)
        assert stats.to_dict() == {"runtime.cycles": 5.0, "l3.hits": 2.0}
        # Components that bound the list keep writing to the live one.
        assert stats.slots is slots

    def test_restores_on_error(self):
        stats = Stats()
        with pytest.raises(RuntimeError):
            with stats.suspended():
                stats.add("l1.hits")
                raise RuntimeError("boom")
        assert stats.to_dict() == {}
