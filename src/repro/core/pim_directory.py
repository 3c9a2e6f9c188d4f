"""The PIM directory: cost-effective atomicity for in-flight PEIs.

Section 4.3.  A direct-mapped, *tag-less* table of reader-writer locks
indexed by the XOR-folded target block address.  Because it is tag-less, two
different blocks can map to the same entry and be needlessly serialized
(a false positive) — that is safe and, per Section 7.6, rare; what can never
happen is two simultaneous writers of the *same* block (a false negative),
because same block implies same entry.

Timing realization: each entry keeps two timestamps, when the last writer
completes (``writer_free``) and when the last reader completes
(``readers_max``).  A reader may start once the current writer is done
(readers overlap each other); a writer must wait for both previous writers
and all in-flight readers.  This reproduces the blocking rules of the paper's
readable/writeable bits + reader/writer counters in a timestamp world.

With ``ideal=True`` the directory models the Ideal-Host configuration: an
infinite zero-latency table, i.e. per-block entries and no access cost.
"""

from typing import Dict, Optional

from repro.sim.stat_keys import (
    SLOT_PIM_DIRECTORY_ACCESSES,
    SLOT_PIM_DIRECTORY_CONFLICTS,
    SLOT_PIM_DIRECTORY_WAIT_CYCLES,
)
from repro.sim.stats import Stats
from repro.util.bitops import ilog2, is_power_of_two, xor_fold

#: Hardware widths of one directory entry (Section 6.1): a 10-bit reader
#: counter and a 1-bit writer counter, next to the readable/writeable bits.
#: The golden verification model (repro.verify.golden) and the trace
#: sanitizer (SAN010) bound admissible concurrency by these widths.
READER_COUNTER_BITS = 10
WRITER_COUNTER_BITS = 1

#: Most concurrent readers of one entry the hardware can represent.
MAX_CONCURRENT_READERS = (1 << READER_COUNTER_BITS) - 1


class PimDirectory:
    """Direct-mapped reader-writer lock table for PEI atomicity."""

    def __init__(
        self,
        entries: int = 2048,
        latency: float = 2.0,
        stats: Optional[Stats] = None,
        ideal: bool = False,
        handoff_penalty: float = 10.0,
    ):
        if not ideal and not is_power_of_two(entries):
            raise ValueError(f"entry count must be a power of two, got {entries}")
        self.entries = entries
        self.latency = 0.0 if ideal else latency
        self.ideal = ideal
        # Cost of passing a contended lock (and, physically, the cache-line
        # ownership) to the next PEI.  Applied only when the acquirer
        # actually had to wait; even the ideal directory keeps it, because
        # it models coherence, not directory storage.
        self.handoff_penalty = handoff_penalty
        self.stats = stats if stats is not None else Stats()
        self._slots = self.stats.slots  # batched counter fast path
        self._index_bits = ilog2(entries) if not ideal else 0
        self._index_mask = (1 << self._index_bits) - 1
        self._writer_free: Dict[int, float] = {}
        self._readers_max: Dict[int, float] = {}
        # Global completion horizon of all in-flight/completed writer PEIs —
        # the time a pfence issued now would return (Section 3.2).
        self._fence_horizon = 0.0

    # ------------------------------------------------------------------
    # Lock protocol
    # ------------------------------------------------------------------

    def acquire(self, block: int, is_writer: bool, time: float) -> "tuple[int, float]":
        """Acquire the entry for ``block``; return (entry, grant_time).

        ``grant_time`` already includes the directory access latency.  The
        caller must later pass ``entry`` to :meth:`release`.
        """
        bits = self._index_bits
        if self.ideal:
            entry = block
        elif bits:
            # Inlined xor_fold (per-PEI hot path).
            entry = 0
            index_mask = self._index_mask
            value = block
            while value:
                entry ^= value & index_mask
                value >>= bits
        else:
            entry = xor_fold(block, bits)  # single-entry table: raises
        t = time + self.latency
        slots = self._slots
        slots[SLOT_PIM_DIRECTORY_ACCESSES] += 1.0
        writer_free = self._writer_free.get(entry, 0.0)
        if is_writer:
            readers_max = self._readers_max.get(entry, 0.0)
            busy_until = writer_free if writer_free > readers_max else readers_max
        else:
            busy_until = writer_free
        if busy_until > t:
            grant = busy_until + self.handoff_penalty
            slots[SLOT_PIM_DIRECTORY_CONFLICTS] += 1.0
            slots[SLOT_PIM_DIRECTORY_WAIT_CYCLES] += grant - t
        else:
            grant = t
        return entry, grant

    def release(self, entry: int, is_writer: bool, completion: float) -> None:
        """Record the completion of the PEI holding ``entry``."""
        if is_writer:
            if completion > self._writer_free.get(entry, 0.0):
                self._writer_free[entry] = completion
            if completion > self._fence_horizon:
                self._fence_horizon = completion
        else:
            if completion > self._readers_max.get(entry, 0.0):
                self._readers_max[entry] = completion

    # ------------------------------------------------------------------
    # pfence support
    # ------------------------------------------------------------------

    def fence_time(self, time: float) -> float:
        """When a pfence issued at ``time`` unblocks.

        The pfence waits for every directory entry to become readable, i.e.
        for all writer PEIs issued before it to complete.
        """
        horizon = max(self._fence_horizon, time)
        return horizon + (0.0 if self.ideal else self.latency)

    def quiesce_time(self, time: float) -> float:
        """When *all* in-flight PEIs (readers included) have completed.

        Every release raises its own entry's completion maximum, so the
        latest completion of any PEI is the largest of those maxima.
        """
        return max([time, *self._writer_free.values(),
                    *self._readers_max.values()])

    # ------------------------------------------------------------------

    @property
    def storage_bits(self) -> int:
        """Storage cost: 13 bits per entry (Section 6.1).

        Unlike the locality monitor's LRU field, nothing here scales with a
        geometry knob: the directory is direct-mapped and tag-less, and the
        counter widths are the paper-fixed hardware widths above, so the
        per-entry cost is a constant regardless of the entry count.
        """
        if self.ideal:
            return 0
        # readable + writeable + reader counter + writer counter
        per_entry = 2 + READER_COUNTER_BITS + WRITER_COUNTER_BITS
        return self.entries * per_entry
