"""A trace-driven host core with a bounded memory-level-parallelism window.

The model abstracts an out-of-order core the way trace-driven bandwidth
studies do: non-memory instructions retire at the issue width; independent
loads overlap up to the MSHR-bounded window size; dependent loads (pointer
chases) serialize on the previous load's completion; stores post through a
write buffer.  This keeps per-operation cost tiny while preserving the two
effects the paper's results hinge on — memory-level parallelism and
bandwidth pressure.
"""

import heapq
from typing import List

from repro.cache.hierarchy import CacheHierarchy
from repro.sim.stat_keys import SLOT_CORE_LOADS, SLOT_CORE_STORES
from repro.sim.stats import Stats
from repro.vm.tlb import Tlb


class CoreModel:
    """Per-core execution state and the load/store/compute timing rules."""

    __slots__ = (
        "core_id",
        "issue_width",
        "mlp",
        "tlb",
        "hierarchy",
        "stats",
        "_slots",
        "time",
        "instructions",
        "_window",
        "last_load_completion",
        "chain_completions",
    )

    def __init__(
        self,
        core_id: int,
        issue_width: int,
        mlp: int,
        tlb: Tlb,
        hierarchy: CacheHierarchy,
        stats: Stats,
    ):
        if issue_width <= 0 or mlp <= 0:
            raise ValueError("issue width and MLP window must be positive")
        self.core_id = core_id
        self.issue_width = issue_width
        self.mlp = mlp
        self.tlb = tlb
        self.hierarchy = hierarchy
        self.stats = stats
        self._slots = stats.slots  # batched counter fast path
        self.time = 0.0
        self.instructions = 0
        self._window: List[float] = []  # heap of in-flight completions
        self.last_load_completion = 0.0
        # Per-chain completion horizon for dependent PEI sequences (HJ's
        # unrolled hash-probe pointer chases).
        self.chain_completions = {}

    # ------------------------------------------------------------------
    # MLP window: models MSHR/ROB-bounded overlap of memory operations
    # ------------------------------------------------------------------

    def window_acquire(self) -> None:
        """Claim a window slot, stalling on the oldest in-flight completion."""
        if len(self._window) >= self.mlp:
            oldest = heapq.heappop(self._window)
            if oldest > self.time:
                self.time = oldest

    def window_release(self, completion: float) -> None:
        heapq.heappush(self._window, completion)

    def drain(self) -> None:
        """Wait for every in-flight memory operation (used by fences)."""
        if self._window:
            last = max(self._window)
            if last > self.time:
                self.time = last
            self._window.clear()

    # ------------------------------------------------------------------
    # Operation handlers
    # ------------------------------------------------------------------

    def do_compute(self, insts: int) -> None:
        self.time += insts / self.issue_width
        self.instructions += insts

    def do_load(self, vaddr: int, dep: bool) -> None:
        paddr, tlb_latency = self.tlb.translate(vaddr)
        self.time += 1.0 / self.issue_width + tlb_latency
        if dep and self.last_load_completion > self.time:
            # Address depends on the previous load's value: serialize.
            self.time = self.last_load_completion
        # window_acquire/window_release, inlined (per-load hot path).
        window = self._window
        if len(window) >= self.mlp:
            oldest = heapq.heappop(window)
            if oldest > self.time:
                self.time = oldest
        finish = self.hierarchy.access(self.core_id, paddr, False, self.time)
        heapq.heappush(window, finish)
        self.last_load_completion = finish
        self.instructions += 1
        self._slots[SLOT_CORE_LOADS] += 1.0

    def do_store(self, vaddr: int) -> None:
        paddr, tlb_latency = self.tlb.translate(vaddr)
        self.time += 1.0 / self.issue_width + tlb_latency
        # window_acquire/window_release, inlined (per-store hot path).
        window = self._window
        if len(window) >= self.mlp:
            oldest = heapq.heappop(window)
            if oldest > self.time:
                self.time = oldest
        # Stores retire through the write buffer; the window bounds how many
        # can be outstanding but the core does not wait for completion.
        heapq.heappush(
            window, self.hierarchy.access(self.core_id, paddr, True, self.time))
        self.instructions += 1
        self._slots[SLOT_CORE_STORES] += 1.0

    def translate(self, vaddr: int) -> int:
        """TLB translation for a PEI target block (latency charged to core)."""
        paddr, tlb_latency = self.tlb.translate(vaddr)
        self.time += tlb_latency
        return paddr

    @property
    def ipc(self) -> float:
        return self.instructions / self.time if self.time > 0 else 0.0
