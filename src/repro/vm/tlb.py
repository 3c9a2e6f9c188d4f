"""A per-core translation lookaside buffer.

The single-cache-block restriction guarantees a PEI needs exactly one TLB
access, the same as a normal memory instruction (Section 4.4) — so the TLB
is shared by loads, stores and PEIs alike and misses add a fixed page-walk
latency.
"""

from collections import OrderedDict

from repro.vm.page_table import PageTable


class Tlb:
    """Fully-associative LRU TLB in front of a shared page table."""

    __slots__ = ("page_table", "entries", "_cache", "walk_latency",
                 "_page_bits", "_page_mask", "_mapping")

    def __init__(self, page_table: PageTable, entries: int = 64, walk_latency: float = 100.0):
        if entries <= 0:
            raise ValueError(f"TLB must have at least one entry, got {entries}")
        self.page_table = page_table
        self.entries = entries
        self.walk_latency = walk_latency
        self._cache: OrderedDict = OrderedDict()
        # Cached geometry: translate() runs per memory op, and the
        # page_table attribute chain costs more than the arithmetic.
        self._page_bits = page_table.page_bits
        self._page_mask = page_table.page_size - 1
        # The page table's vpage->frame dict, cached for the inlined
        # already-mapped fast path in translate() (the dict is created once
        # in PageTable.__init__ and never replaced).
        self._mapping = page_table._mapping

    def translate(self, vaddr: int) -> "tuple[int, float]":
        """Return ``(physical_address, extra_latency)`` for ``vaddr``."""
        page_bits = self._page_bits
        vpage = vaddr >> page_bits
        cache = self._cache
        frame = cache.get(vpage)
        if frame is not None:
            cache.move_to_end(vpage)
            return (frame << page_bits) | (vaddr & self._page_mask), 0.0
        # PageTable.translate inlined for already-mapped pages; only a
        # first touch (fault) goes through the page table itself.
        frame = self._mapping.get(vpage)
        if frame is None:
            frame = self.page_table.translate(vaddr) >> page_bits
        cache[vpage] = frame
        if len(cache) > self.entries:
            cache.popitem(last=False)
        return ((frame << page_bits) | (vaddr & self._page_mask),
                self.walk_latency)

    def flush(self) -> None:
        self._cache.clear()
