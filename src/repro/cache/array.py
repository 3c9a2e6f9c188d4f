"""A set-associative tag array with pluggable replacement.

Stores block numbers (addresses already divided by the block size) and a
dirty bit per block.  Used for the L1/L2/L3 tag arrays; the locality monitor
has its own structure because it stores partial tags and ignore flags.

Replacement policies: ``"lru"`` (true LRU, the default and what Table 2's
caches and the locality monitor use), ``"fifo"`` (insertion order, no hit
promotion), and ``"random"`` (deterministic pseudo-random victims).
"""

from collections import OrderedDict
from itertools import islice
from typing import List, Optional, Tuple

from repro.util.bitops import is_power_of_two

REPLACEMENT_POLICIES = ("lru", "fifo", "random")


class SetAssocArray:
    """Tags-only set-associative cache model."""

    __slots__ = ("n_sets", "n_ways", "sets", "policy", "_victim_seed",
                 "_set_mask")

    def __init__(self, n_sets: int, n_ways: int, policy: str = "lru"):
        if not is_power_of_two(n_sets):
            raise ValueError(f"set count must be a power of two, got {n_sets}")
        if n_ways <= 0:
            raise ValueError(f"way count must be positive, got {n_ways}")
        if policy not in REPLACEMENT_POLICIES:
            raise ValueError(
                f"unknown replacement policy '{policy}'; "
                f"choose from {REPLACEMENT_POLICIES}")
        self.n_sets = n_sets
        self.n_ways = n_ways
        self._set_mask = n_sets - 1
        self.policy = policy
        self.sets: List[OrderedDict] = [OrderedDict() for _ in range(n_sets)]
        # xorshift state for deterministic "random" victim selection.
        self._victim_seed = 0x9E3779B9

    @classmethod
    def from_geometry(cls, size_bytes: int, n_ways: int, block_size: int = 64) -> "SetAssocArray":
        n_sets = size_bytes // (n_ways * block_size)
        return cls(n_sets, n_ways)

    def _set_of(self, block: int) -> OrderedDict:
        return self.sets[block & self._set_mask]

    def lookup(self, block: int, promote: bool = True) -> bool:
        """Return True on hit; promotes the block to MRU unless disabled
        (promotion only affects the LRU policy)."""
        # The set probe is inlined in every hot method: _set_of as a call
        # showed up with six-digit call counts in engine profiles.
        line_set = self.sets[block & self._set_mask]
        if block in line_set:
            if promote and self.policy == "lru":
                line_set.move_to_end(block)
            return True
        return False

    def _next_victim_index(self, n_valid: int) -> int:
        """Deterministic xorshift index for the 'random' policy."""
        x = self._victim_seed
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._victim_seed = x
        return x % n_valid

    def contains(self, block: int) -> bool:
        """Presence probe with no LRU side effects."""
        return block in self._set_of(block)

    def insert(self, block: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Insert ``block``; return the evicted (block, dirty) if any."""
        line_set = self.sets[block & self._set_mask]
        prior = line_set.get(block)
        if prior is not None:
            if dirty and not prior:
                line_set[block] = dirty
            if self.policy == "lru":
                line_set.move_to_end(block)
            return None
        # Install path, shared verbatim with lookup_insert below.  Kept
        # inline rather than factored into a helper: insertion runs on
        # every fill at every level, and the helper call showed up with
        # five-digit counts in engine profiles.
        victim = None
        if len(line_set) >= self.n_ways:
            if self.policy == "random":
                index = self._next_victim_index(len(line_set))
                victim_block = next(islice(line_set, index, None))
                victim = (victim_block, line_set.pop(victim_block))
            else:  # lru and fifo both evict the oldest entry
                victim = line_set.popitem(last=False)
        line_set[block] = dirty
        return victim

    def lookup_insert(self, block: int, dirty: bool = False
                      ) -> Tuple[bool, Optional[Tuple[int, bool]]]:
        """Combined lookup-or-install with a single set resolution.

        On hit: promotes (LRU), folds in ``dirty``, and returns
        ``(True, None)``.  On miss: installs the block (evicting if the set
        is full) and returns ``(False, victim)``.
        Equivalent to ``lookup(block)`` followed by ``insert(block, dirty)``
        but with one ``_set_of`` resolution and no double membership probe.
        """
        line_set = self.sets[block & self._set_mask]
        prior = line_set.get(block)
        if prior is not None:
            if dirty and not prior:
                line_set[block] = dirty
            if self.policy == "lru":
                line_set.move_to_end(block)
            return True, None
        victim = None
        if len(line_set) >= self.n_ways:
            if self.policy == "random":
                index = self._next_victim_index(len(line_set))
                victim_block = next(islice(line_set, index, None))
                victim = (victim_block, line_set.pop(victim_block))
            else:
                victim = line_set.popitem(last=False)
        line_set[block] = dirty
        return False, victim

    def remove(self, block: int) -> Optional[bool]:
        """Remove ``block``; return its dirty bit, or None if absent."""
        return self._set_of(block).pop(block, None)

    def mark_dirty(self, block: int) -> None:
        line_set = self._set_of(block)
        if block in line_set:
            line_set[block] = True

    def mark_clean(self, block: int) -> None:
        line_set = self._set_of(block)
        if block in line_set:
            line_set[block] = False

    def is_dirty(self, block: int) -> bool:
        return self._set_of(block).get(block, False)

    def occupancy(self) -> int:
        """Total number of valid blocks currently cached."""
        return sum(len(s) for s in self.sets)

    def clear(self) -> None:
        for line_set in self.sets:
            line_set.clear()
