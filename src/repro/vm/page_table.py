"""A flat page table allocating physical frames on first touch.

Frames are handed out in a deterministic pseudo-random order (a multiplicative
permutation) so that virtually-contiguous regions spread over DRAM rows the
way a real long-running system's physical memory does, instead of perfectly
sequentially.
"""

from typing import Dict, List

from repro.util.bitops import ilog2, is_power_of_two


class PageTable:
    """Virtual-page to physical-frame mapping with on-demand allocation."""

    # Large odd multiplier for the frame permutation (splitmix-style).
    _MULTIPLIER = 0x9E3779B97F4A7C15

    def __init__(self, page_size: int = 4096, n_frames: int = 1 << 20):
        if not is_power_of_two(page_size):
            raise ValueError(f"page size must be a power of two, got {page_size}")
        if not is_power_of_two(n_frames):
            raise ValueError(f"frame count must be a power of two, got {n_frames}")
        self.page_size = page_size
        self.page_bits = ilog2(page_size)
        self.n_frames = n_frames
        self._mapping: Dict[int, int] = {}
        self._next_sequence = 0
        self.page_faults = 0

    def _allocate_frame(self) -> int:
        if self._next_sequence >= self.n_frames:
            raise MemoryError("physical memory exhausted")
        frame = (self._next_sequence * self._MULTIPLIER) & (self.n_frames - 1)
        # The multiplier is odd and n_frames a power of two, so the map
        # sequence -> frame is a bijection: no frame is handed out twice.
        self._next_sequence += 1
        return frame

    def translate(self, vaddr: int) -> int:
        """Translate a virtual address, faulting in a frame if needed."""
        vpage = vaddr >> self.page_bits
        frame = self._mapping.get(vpage)
        if frame is None:
            frame = self._allocate_frame()
            self._mapping[vpage] = frame
            self.page_faults += 1
        return (frame << self.page_bits) | (vaddr & (self.page_size - 1))

    def fault_pages(self, first_vpage: int, n_pages: int) -> List[int]:
        """Frames of ``n_pages`` consecutive virtual pages from ``first_vpage``.

        Exactly :meth:`translate` on each page in ascending order: unmapped
        pages fault in sequence, mapped ones keep their frames, and running
        out of frames raises ``MemoryError`` at the same page with the
        earlier pages mapped.  A run with no page mapped and enough frames
        left — every warm start on a fresh machine — is allocated in one
        comprehension instead of one call per page.
        """
        if n_pages < 0:
            raise ValueError(f"page count must be non-negative, got {n_pages}")
        vpages = range(first_vpage, first_vpage + n_pages)
        mapping = self._mapping
        start = self._next_sequence
        end = start + n_pages
        if end <= self.n_frames and mapping.keys().isdisjoint(vpages):
            mask = self.n_frames - 1
            multiplier = self._MULTIPLIER
            frames = [(seq * multiplier) & mask for seq in range(start, end)]
            mapping.update(zip(vpages, frames))
            self._next_sequence = end
            self.page_faults += n_pages
            return frames
        bits = self.page_bits
        return [self.translate(vpage << bits) >> bits for vpage in vpages]

    @property
    def mapped_pages(self) -> int:
        return len(self._mapping)
