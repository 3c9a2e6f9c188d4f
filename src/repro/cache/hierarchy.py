"""Inclusive L1/L2/L3 hierarchy with MESI-lite directory coherence.

Functional on tags: every access updates presence, dirtiness, the sharer set
and the modified-owner of the target block, and returns a latency composed of
crossbar, L3-bank and memory occupancies.  Two properties matter for the PEI
architecture and are enforced here:

* **Inclusion** — a block present in any private L1/L2 is present in the L3;
  evicting a block from the L3 back-invalidates the private copies.  This is
  what lets the PMU clean a block for memory-side execution by probing only
  the L3 directory (Section 4.3, "Cache Coherence Management").
* **Single-writer** — a block dirty in one core's private caches is in no
  other core's caches; a write to a shared block invalidates other sharers.

The hierarchy exposes ``flush_block`` implementing both back-invalidation
(writer PEIs) and back-writeback (reader PEIs), and an ``l3_observer`` hook
through which the PMU's locality monitor sees every last-level-cache access.
"""

from typing import Callable, Dict, Optional, Set, Tuple, List

from repro.cache.array import SetAssocArray
from repro.mem.hmc import HmcSystem
from repro.sim.resource import BankedResource
from repro.sim.stat_keys import (
    SLOT_COHERENCE_BACK_INVALIDATIONS,
    SLOT_COHERENCE_CACHE_TO_CACHE,
    SLOT_COHERENCE_INVALIDATIONS,
    SLOT_L1_ACCESSES,
    SLOT_L1_HITS,
    SLOT_L2_ACCESSES,
    SLOT_L2_HITS,
    SLOT_L2_WRITEBACKS,
    SLOT_L3_ACCESSES,
    SLOT_L3_HITS,
    SLOT_L3_MISSES,
    SLOT_L3_WRITEBACKS,
    SLOT_PMU_BACK_INVALIDATIONS,
    SLOT_PMU_BACK_WRITEBACKS,
)
from repro.sim.stats import Stats
from repro.util.bitops import ilog2
from repro.xbar.crossbar import Crossbar


class CacheHierarchy:
    """The on-chip cache subsystem shared by host cores and host-side PCUs."""

    def __init__(
        self,
        n_cores: int,
        block_size: int,
        l1_sets: int,
        l1_ways: int,
        l2_sets: int,
        l2_ways: int,
        l3_sets: int,
        l3_ways: int,
        l1_latency: float,
        l2_latency: float,
        l3_latency: float,
        l3_banks: int,
        l3_bank_occupancy: float,
        crossbar: Crossbar,
        hmc: HmcSystem,
        stats: Stats,
        cache_to_cache_penalty: float = 20.0,
        replacement_policy: str = "lru",
    ):
        self.n_cores = n_cores
        self.block_bits = ilog2(block_size)
        self.block_size = block_size
        self.l1 = [SetAssocArray(l1_sets, l1_ways, replacement_policy)
                   for _ in range(n_cores)]
        self.l2 = [SetAssocArray(l2_sets, l2_ways, replacement_policy)
                   for _ in range(n_cores)]
        self.l3 = SetAssocArray(l3_sets, l3_ways, replacement_policy)
        self.l1_latency = l1_latency
        self.l2_latency = l2_latency
        self.l3_latency = l3_latency
        self.l3_banks = BankedResource("l3.bank", l3_banks)
        self._l3_bank_list = self.l3_banks.banks
        self._n_l3_banks = len(self._l3_bank_list)
        self.l3_bank_occupancy = l3_bank_occupancy
        self.crossbar = crossbar
        # Crossbar geometry flattened for the inlined traversals in
        # access(): every shared-level access crosses the crossbar twice.
        self._xbar_ports = crossbar.ports
        self._n_xbar_ports = len(crossbar.ports)
        self._xbar_latency = crossbar.latency
        self._response_bytes = block_size + 16
        self.hmc = hmc
        self.stats = stats
        # Batched counter fast path: per-op events accumulate into the
        # shared slot list (see repro.sim.stat_keys) instead of paying a
        # string-keyed dict update per access.
        self._slots = stats.slots
        self.cache_to_cache_penalty = cache_to_cache_penalty
        # True LRU promotes on hit; fifo/random do not.  Cached so the
        # inlined L1 probe in access() can branch without a string compare.
        self._lru = replacement_policy == "lru"
        # Directory state: which cores hold private copies, and which single
        # core (if any) holds the block modified.
        self.sharers: Dict[int, Set[int]] = {}
        self.owner: Dict[int, Optional[int]] = {}
        # Locality-monitor hook: called with the block number of every L3
        # access (hits and misses alike), mirroring the paper's monitor
        # update rule.
        self.l3_observer: Optional[Callable[[int], None]] = None

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def block_of(self, addr: int) -> int:
        return addr >> self.block_bits

    def block_addr(self, block: int) -> int:
        return block << self.block_bits

    def _fill_private(self, core: int, block: int, dirty: bool, time: float) -> None:
        """Install ``block`` into core's L1 and L2, handling evictions.

        Only reached on private misses, so the combined ``lookup_insert``
        always takes its install path — one set resolution per level.
        """
        _, victim = self.l2[core].lookup_insert(block, dirty=False)
        if victim is not None:
            self._retire_private_victim(core, victim, time)
        _, victim = self.l1[core].lookup_insert(block, dirty=dirty)
        if victim is not None:
            v_block, v_dirty = victim
            if v_dirty:
                # Dirty L1 victim folds into the L2 copy (or re-installs).
                evicted = self.l2[core].insert(v_block, dirty=True)
                if evicted is not None:
                    self._retire_private_victim(core, evicted, time)
                self.l2[core].mark_dirty(v_block)
            else:
                self._drop_private_if_absent(core, v_block)

    def _retire_private_victim(self, core: int, victim: Tuple[int, bool], time: float) -> None:
        """An L2 eviction: dirty data folds into the (inclusive) L3."""
        v_block, v_dirty = victim
        if self.l1[core].contains(v_block):
            # L1 still holds it: the private copy survives, and the evicted
            # L2 copy's dirtiness folds into the surviving L1 line.
            if v_dirty:
                self.l1[core].mark_dirty(v_block)
            return
        if v_dirty:
            self.l3.mark_dirty(v_block)
            if self.owner.get(v_block) == core:
                self.owner[v_block] = None
            self._slots[SLOT_L2_WRITEBACKS] += 1.0
        self._remove_sharer(v_block, core)

    def _drop_private_if_absent(self, core: int, block: int) -> None:
        """After an L1 eviction, update the sharer set if L2 lacks it too."""
        if not self.l2[core].contains(block):
            self._remove_sharer(block, core)
            if self.owner.get(block) == core:
                # Clean eviction of an owned block cannot happen (owned blocks
                # are dirty), but guard anyway.
                self.owner[block] = None

    def _remove_sharer(self, block: int, core: int) -> None:
        holders = self.sharers.get(block)
        if holders is not None:
            holders.discard(core)
            if not holders:
                del self.sharers[block]

    def _add_sharer(self, block: int, core: int) -> None:
        # get + branch rather than setdefault: avoids allocating a fresh
        # set() on every access to an already-shared block.
        holders = self.sharers.get(block)
        if holders is None:
            # simflow: ignore[FLW008] -- allocates only on the first-sharer
            # transition of a block, not per access (see comment above)
            self.sharers[block] = {core}
        else:
            holders.add(core)

    def _invalidate_other_sharers(self, block: int, core: int) -> float:
        """Invalidate every private copy except core's; return added latency."""
        holders = self.sharers.get(block)
        if not holders:
            return 0.0
        # simflow: ignore[FLW008] -- runs only when a write hits a *shared*
        # block; bounded by the sharer count, not per access
        others = [c for c in holders if c != core]
        if not others:
            return 0.0
        for other in others:
            dirty1 = self.l1[other].remove(block)
            dirty2 = self.l2[other].remove(block)
            if dirty1 or dirty2:
                # The previous owner's data folds into the L3 copy.
                self.l3.mark_dirty(block)
            self._remove_sharer(block, other)
            self._slots[SLOT_COHERENCE_INVALIDATIONS] += 1.0
        if self.owner.get(block) not in (None, core):
            self.owner[block] = None
        return 2.0 * self.crossbar.latency

    # ------------------------------------------------------------------
    # The main access path
    # ------------------------------------------------------------------

    def access(self, core: int, addr: int, is_write: bool, time: float) -> float:
        """Perform a load (``is_write=False``) or store by ``core``.

        Returns the completion time as a bare float: one access runs per
        simulated load or store, so it builds no result object.  The
        per-level hit counters (``l1.hits`` ... ``l3.misses``) record which
        level serviced it.  Store misses are write-allocate.
        """
        block = addr >> self.block_bits
        slots = self._slots
        slots[SLOT_L1_ACCESSES] += 1.0
        # L1 — the probe is SetAssocArray.lookup + mark_dirty inlined: this
        # is the single most frequent path in the simulator.
        l1 = self.l1[core]
        line_set = l1.sets[block & l1._set_mask]
        prior = line_set.get(block)
        if prior is not None:
            if self._lru:
                line_set.move_to_end(block)
            slots[SLOT_L1_HITS] += 1.0
            latency = self.l1_latency
            if is_write:
                latency += self._promote_to_owner(block, core)
                if not prior:
                    line_set[block] = True
            return time + latency
        # L2 — same inlined probe as the L1 above.
        slots[SLOT_L2_ACCESSES] += 1.0
        l2 = self.l2[core]
        line_set = l2.sets[block & l2._set_mask]
        if block in line_set:
            if self._lru:
                line_set.move_to_end(block)
            slots[SLOT_L2_HITS] += 1.0
            latency = self.l2_latency
            if is_write:
                latency += self._promote_to_owner(block, core)
            # The L1 missed above, so this is always an install; the dirty
            # bit is set here directly (no separate mark_dirty probe).
            # lookup_insert inlined on its (deterministic) miss path.
            if self._lru:
                line_set = l1.sets[block & l1._set_mask]
                victim = None
                if len(line_set) >= l1.n_ways:
                    victim = line_set.popitem(last=False)
                line_set[block] = is_write
            else:
                victim = l1.insert(block, dirty=is_write)
            if victim is not None:
                v_block, v_dirty = victim
                if v_dirty:
                    evicted = l2.insert(v_block, dirty=True)
                    if evicted is not None:
                        self._retire_private_victim(core, evicted, time)
                    l2.mark_dirty(v_block)
                else:
                    self._drop_private_if_absent(core, v_block)
            return time + latency
        # L3 (via crossbar; the bank acquire skips the BankedResource
        # modulo wrapper)
        # Crossbar.traverse inlined, request direction (16 B control).
        link = self._xbar_ports[core % self._n_xbar_ports]
        occupancy = 16 / link.bytes_per_cycle
        if time > link.clock:
            gap = time - link.clock
            link.backlog = link.backlog - gap if link.backlog > gap else 0.0
            link.clock = time
        t = time + link.backlog + occupancy + self._xbar_latency
        link.backlog += occupancy
        link.bytes_transferred += 16
        # Bank acquire (Resource.acquire inlined; skips the BankedResource
        # modulo wrapper, and the bank's busy time, which nothing reads).
        bank = self._l3_bank_list[block % self._n_l3_banks]
        if t > bank.clock:
            gap = t - bank.clock
            bank.backlog = bank.backlog - gap if bank.backlog > gap else 0.0
            bank.clock = t
        t = t + bank.backlog
        bank.backlog += self.l3_bank_occupancy
        t += self.l3_latency
        slots[SLOT_L3_ACCESSES] += 1.0
        if self.l3_observer is not None:
            self.l3_observer(block)
        l3 = self.l3
        line_set = l3.sets[block & l3._set_mask]
        if block in line_set:
            if self._lru:
                line_set.move_to_end(block)
            slots[SLOT_L3_HITS] += 1.0
            t += self._collect_remote_copy(block, core, is_write)
        else:
            slots[SLOT_L3_MISSES] += 1.0
            t = self.hmc.read_block(t, block << self.block_bits)
            self._install_in_l3(block, time)
        if is_write:
            t += self._promote_to_owner(block, core)
        # Response crosses the crossbar back to the core (inlined traverse,
        # header + one block of data).
        nbytes = self._response_bytes
        link = self._xbar_ports[core % self._n_xbar_ports]
        occupancy = nbytes / link.bytes_per_cycle
        if t > link.clock:
            gap = t - link.clock
            link.backlog = link.backlog - gap if link.backlog > gap else 0.0
            link.clock = t
        start = t + link.backlog
        link.backlog += occupancy
        link.bytes_transferred += nbytes
        t = start + occupancy + self._xbar_latency
        self._add_sharer(block, core)
        # _fill_private inlined (it runs on every L3/memory service): both
        # private levels missed above, so each lookup_insert would take its
        # deterministic miss/install path — done here without the calls.
        if self._lru:
            line_set = l2.sets[block & l2._set_mask]
            victim = None
            if len(line_set) >= l2.n_ways:
                victim = line_set.popitem(last=False)
            line_set[block] = False
            if victim is not None:
                self._retire_private_victim(core, victim, time)
            line_set = l1.sets[block & l1._set_mask]
            victim = None
            if len(line_set) >= l1.n_ways:
                victim = line_set.popitem(last=False)
            line_set[block] = is_write
            if victim is not None:
                v_block, v_dirty = victim
                if v_dirty:
                    evicted = l2.insert(v_block, dirty=True)
                    if evicted is not None:
                        self._retire_private_victim(core, evicted, time)
                    l2.mark_dirty(v_block)
                else:
                    self._drop_private_if_absent(core, v_block)
        else:
            self._fill_private(core, block, dirty=is_write, time=time)
        return t

    def _promote_to_owner(self, block: int, core: int) -> float:
        """Give ``core`` exclusive write ownership of ``block``."""
        latency = self._invalidate_other_sharers(block, core)
        self.owner[block] = core
        return latency

    def _collect_remote_copy(self, block: int, core: int, is_write: bool) -> float:
        """Handle an L3 hit whose latest data lives in another core's cache."""
        own = self.owner.get(block)
        if own is None or own == core:
            return 0.0
        # Cache-to-cache transfer: the owner's dirty data folds into the L3.
        dirty1 = self.l1[own].is_dirty(block)
        dirty2 = self.l2[own].is_dirty(block)
        if dirty1 or dirty2:
            self.l3.mark_dirty(block)
        if is_write:
            self.l1[own].remove(block)
            self.l2[own].remove(block)
            self._remove_sharer(block, own)
        else:
            self.l1[own].mark_clean(block)
            self.l2[own].mark_clean(block)
        self.owner[block] = None
        self._slots[SLOT_COHERENCE_CACHE_TO_CACHE] += 1.0
        return self.cache_to_cache_penalty

    def _install_in_l3(self, block: int, time: float) -> None:
        """Insert a memory-fetched block into the L3, evicting inclusively."""
        victim = self.l3.insert(block, dirty=False)
        if victim is None:
            return
        v_block, v_dirty = victim
        # Inclusion: revoke every private copy of the victim.
        holders = self.sharers.pop(v_block, ())
        for holder in holders:
            d1 = self.l1[holder].remove(v_block)
            d2 = self.l2[holder].remove(v_block)
            v_dirty = v_dirty or bool(d1) or bool(d2)
            self._slots[SLOT_COHERENCE_BACK_INVALIDATIONS] += 1.0
        self.owner.pop(v_block, None)
        if v_dirty:
            self._slots[SLOT_L3_WRITEBACKS] += 1.0
            self.hmc.write_block(time, self.block_addr(v_block))

    # ------------------------------------------------------------------
    # PMU-facing operations
    # ------------------------------------------------------------------

    def present(self, block: int) -> bool:
        """True if the block has any copy on chip (no side effects)."""
        return self.l3.contains(block) or block in self.sharers

    def flush_block(self, block: int, invalidate: bool, time: float) -> Tuple[float, bool]:
        """Back-invalidate (writer PEI) or back-writeback (reader PEI).

        Returns ``(ready_time, wrote_back)`` where ``ready_time`` is when
        main memory holds the latest data (a memory-side PIM operation must
        not start before it), and ``wrote_back`` says whether dirty data
        actually moved off chip.
        """
        if not self.present(block):
            return time, False
        latency = self.l3_latency + self.crossbar.latency
        dirty = self.l3.is_dirty(block)
        # simflow: ignore[FLW008] -- defensive copy: the loop below removes
        # blocks from the private caches, which mutates the sharer set
        holders = list(self.sharers.get(block, ()))
        for holder in holders:
            if invalidate:
                d1 = self.l1[holder].remove(block)
                d2 = self.l2[holder].remove(block)
            else:
                d1 = self.l1[holder].is_dirty(block)
                d2 = self.l2[holder].is_dirty(block)
                self.l1[holder].mark_clean(block)
                self.l2[holder].mark_clean(block)
            dirty = dirty or bool(d1) or bool(d2)
        if invalidate:
            self.sharers.pop(block, None)
            self.owner.pop(block, None)
            self.l3.remove(block)
            self._slots[SLOT_PMU_BACK_INVALIDATIONS] += 1.0
        else:
            self.owner[block] = None
            self.l3.mark_clean(block)
            self._slots[SLOT_PMU_BACK_WRITEBACKS] += 1.0
        ready = time + latency
        if dirty:
            ready = self.hmc.write_block(ready, self.block_addr(block))
            return ready, True
        return ready, False

    # ------------------------------------------------------------------
    # Introspection / invariant checks (used heavily by the test suite)
    # ------------------------------------------------------------------

    def check_inclusion(self) -> List[int]:
        """Return blocks violating inclusion (private copy without L3 copy)."""
        violations = []
        for core in range(self.n_cores):
            for array in (self.l1[core], self.l2[core]):
                for line_set in array.sets:
                    for block in line_set:
                        if not self.l3.contains(block):
                            violations.append(block)
        return violations

    def check_single_writer(self) -> List[int]:
        """Return blocks dirty in more than one core's private caches."""
        violations = []
        seen: Dict[int, int] = {}
        for core in range(self.n_cores):
            for array in (self.l1[core], self.l2[core]):
                for line_set in array.sets:
                    for block, dirty in line_set.items():
                        if not dirty:
                            continue
                        prev = seen.get(block)
                        if prev is not None and prev != core:
                            violations.append(block)
                        seen[block] = core
        return violations
