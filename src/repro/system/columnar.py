"""Columnar trace replay: plan-compiled, vectorized where state allows.

Scalar replay (:meth:`System._run_trace`) walks a :class:`CompiledTrace`
op-by-op through Python dispatch, re-deriving per-op facts — TLB outcomes,
physical addresses, PEI operand decodes, per-op compute time deltas — that
are *pure functions of the trace and the machine geometry*.  This module
compiles those facts once into a :class:`ColumnPlan` and replays through
kind-specialized span loops, leaving only genuinely contention-ordered
state (L3/cache hierarchy, locality monitor, links, DRAM banks, PCUs, PIM
directory) to the existing per-op models.

What the plan precomputes, and why each piece is deterministic:

* **Span segmentation** — each thread's op stream is cut into maximal runs
  of uniform kind (numpy ``diff`` over the kind column).  Ordering points
  (PEI spans, ``pfence``, barriers) bound the runs; the engine's horizon
  batching re-cuts spans dynamically at replay time.
* **TLB outcomes and physical addresses** — each thread owns its core's
  fully-associative LRU TLB exclusively, and under warm start the page
  table's frame permutation is fixed by the region layout (frames are
  handed out by a deterministic multiplicative permutation in warm-sweep
  touch order).  The whole per-op (paddr, walk-latency) sequence is
  therefore a plan-time constant; the live TLB's final state and hit/miss
  totals are restored when replay drains.
* **Compute time deltas** — ``insts / issue_width`` per op, vectorized
  (IEEE-754 double division matches Python's int/int true division
  bit-for-bit).  The per-op accumulation order and the per-op horizon
  checks are preserved, so ``core.time`` rounds identically.
* **PEI operand decode** — resolved ``PimOp`` objects, ``wait_output``
  bools and chain ids, unboxed once instead of per replay op.
* **Locality-monitor partial tags** — the XOR-fold is a pure function of
  the block number; the plan folds every block of the trace in one
  vectorized pass and installs the results into the monitor's tag memo.

What stays per-op scalar: every touch of cross-thread shared state.  Loads
and stores still call ``hierarchy.access`` (coherence, bank contention,
monitor mirroring); PEIs still run the full Fig. 4/5 sequence through
:meth:`PeiExecutor.execute_pei` — only their translation is precomputed.

Bit-identity with scalar replay is the bar (``tests/system/
test_trace_replay.py``, ``test_engine_properties.py``); anything the plan
cannot prove
deterministic (cold machine reuse, addresses outside the captured regions,
``warm_start=False``, missing numpy) makes :func:`replay` return None and
the caller falls back to scalar replay.

This module is imported lazily by ``System._run_trace`` and tolerates a
missing numpy, so numpy-free consumers (repro.analysis, repro.verify)
never pay for it — enforced by the CI import-hygiene check.
"""

import heapq
from collections import OrderedDict, defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised via the scalar fallback
    np = None

from repro.cpu.trace import (
    KIND_BARRIER,
    KIND_COMPUTE,
    KIND_FENCE,
    KIND_LOAD,
    KIND_PEI,
    KIND_STORE,
)
from repro.sim.stat_keys import SLOT_CORE_LOADS, SLOT_CORE_STORES
from repro.vm.page_table import PageTable

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.system.system import System

__all__ = ["ColumnPlan", "plan_cache_counters", "plan_cache_info",
           "replay", "set_plan_cache_limit"]

#: Bounded plan memo keyed by (trace fingerprint, config fingerprint,
#: monitor use).  Plans are immutable after build; each process owns its
#: own cache.
_PLAN_CACHE: "OrderedDict[Tuple, Optional[ColumnPlan]]" = OrderedDict()
_PLAN_CACHE_LIMIT = 8

#: Lifetime hit/miss/eviction counters for this process's plan cache.
#: Consumers (the bench frontier, the engine microbenchmark) snapshot
#: around a run and report the delta; the counters themselves only ever
#: grow.  The bound and the counters shape host memory use and harness
#: observability, never simulation results — replay is bit-identical
#: whether a plan came from the cache or a fresh compile
#: (tests/bench/test_plan_cache.py).
_PLAN_STATS = {"hits": 0, "misses": 0, "evictions": 0}


class ColumnPlan:
    """Per-(trace, geometry) replay columns; see the module docstring."""

    __slots__ = (
        "lengths", "span_kinds", "span_ends",
        "p0", "p1", "p2", "p3", "p4",
        "final_tlb", "tlb_hits", "tlb_misses", "tag_items",
    )

    def __init__(self, lengths, span_kinds, span_ends, p0, p1, p2, p3, p4,
                 final_tlb, tlb_hits, tlb_misses, tag_items):
        self.lengths = lengths
        #: Per thread: the kind of each uniform-kind span / its end index.
        self.span_kinds = span_kinds
        self.span_ends = span_ends
        #: Per-op operand columns (full length, kind-dependent meaning):
        #: p0 = paddr (mem ops) | time delta (compute) | group (barrier);
        #: p1 = walk latency (mem ops) | insts (compute);
        #: p2 = dep flag (loads) | PimOp (PEIs);
        #: p3 = wait_output (PEIs); p4 = chain id or None (PEIs).
        self.p0 = p0
        self.p1 = p1
        self.p2 = p2
        self.p3 = p3
        self.p4 = p4
        #: Per thread: the TLB's final (vpage, frame) LRU order + totals,
        #: restored after replay so machine state matches scalar replay.
        self.final_tlb = final_tlb
        self.tlb_hits = tlb_hits
        self.tlb_misses = tlb_misses
        #: (block, partial_tag) pairs for the monitor's tag memo (None
        #: when the policy never consults the monitor).
        self.tag_items = tag_items


def plan_cache_info() -> Dict[str, int]:
    """Introspection for tests: cached plan count and capacity."""
    return {"size": len(_PLAN_CACHE), "limit": _PLAN_CACHE_LIMIT}


def plan_cache_counters() -> Dict[str, int]:
    """Lifetime plan-cache hits/misses/evictions for this process."""
    return dict(_PLAN_STATS)


def set_plan_cache_limit(limit: int) -> int:
    """Rebound the plan cache (evicting LRU entries past the new bound).

    The bound only trades host memory against plan recompiles; results are
    identical under any bound because a recompiled plan is deterministic.
    """
    global _PLAN_CACHE_LIMIT
    if limit < 1:
        raise ValueError(f"plan cache limit must be >= 1, got {limit}")
    _PLAN_CACHE_LIMIT = limit
    while len(_PLAN_CACHE) > _PLAN_CACHE_LIMIT:
        _PLAN_CACHE.popitem(last=False)
        _PLAN_STATS["evictions"] += 1
    return _PLAN_CACHE_LIMIT


# ----------------------------------------------------------------------
# Plan compilation
# ----------------------------------------------------------------------


def _expected_mapping(trace, config) -> Optional[Dict[int, int]]:
    """The vpage -> frame map the warm sweep deterministically produces.

    Mirrors ``_warm_caches``'s touch order exactly: regions in layout
    order, one translate per page.  Frames come from the page table's
    multiplicative permutation over the fault sequence number, vectorized
    here (uint64 multiply wraps mod 2**64 exactly like Python's masked
    product).  Returns None when the layout breaks an assumption (an
    unaligned region base) — the caller falls back to scalar replay.
    """
    page_size = trace.page_size
    page_bits = page_size.bit_length() - 1
    vpages: List[int] = []
    for _name, base, size in trace.regions:
        if base & (page_size - 1):
            return None
        first = base >> page_bits
        vpages.extend(range(first, first + (size + page_size - 1) // page_size))
    n_frames = config.physical_frames
    if len(vpages) > n_frames:
        # The warm sweep would raise MemoryError; let scalar replay do so.
        return None
    seq = np.arange(len(vpages), dtype=np.uint64)
    frames = (seq * np.uint64(PageTable._MULTIPLIER)) & np.uint64(n_frames - 1)
    return dict(zip(vpages, frames.tolist()))


def _build_plan(trace, config, op_table, machine,
                uses_monitor: bool) -> Optional["ColumnPlan"]:
    mapping = _expected_mapping(trace, config)
    if mapping is None:
        return None
    page_bits = trace.page_size.bit_length() - 1
    page_mask = trace.page_size - 1
    block_bits = machine.hierarchy.block_bits
    issue_width = config.issue_width
    tlb_entries = config.tlb_entries
    walk_latency = config.tlb_walk_latency
    n_threads = trace.n_threads

    lengths = [len(k) for k in trace.kinds]
    span_kinds_all: List[List[int]] = []
    span_ends_all: List[List[int]] = []
    p0_all: List[list] = []
    p1_all: List[list] = []
    p2_all: List[list] = []
    p3_all: List[list] = []
    p4_all: List[list] = []
    final_tlb: List[List[Tuple[int, int]]] = []
    tlb_hits: List[int] = []
    tlb_misses: List[int] = []
    blocks: set = set()

    for tid in range(n_threads):
        kinds = np.frombuffer(trace.kinds[tid], dtype=np.int8)
        a0 = np.frombuffer(trace.a0[tid], dtype=np.int64)
        a1 = np.frombuffer(trace.a1[tid], dtype=np.int64)
        a2 = np.frombuffer(trace.a2[tid], dtype=np.int64)
        a3 = np.frombuffer(trace.a3[tid], dtype=np.int64)
        n = len(kinds)

        # Maximal uniform-kind spans: cut where the kind column changes.
        if n:
            change = np.flatnonzero(kinds[1:] != kinds[:-1]) + 1
            span_kinds = kinds[np.concatenate(([0], change))].tolist()
            span_ends = np.concatenate((change, [n])).tolist()
        else:
            span_kinds, span_ends = [], []

        p0 = a0.tolist()
        p1: list = [0.0] * n
        p2: list = [None] * n
        p3: list = [False] * n
        p4: list = [None] * n

        # Compute spans: per-op time deltas, vectorized.  float64 division
        # of an exact integer matches Python's int/int true division.
        comp_idx = np.flatnonzero(kinds == KIND_COMPUTE)
        if len(comp_idx):
            dts = (a0[comp_idx].astype(np.float64) / issue_width).tolist()
            insts = a0[comp_idx].tolist()
            for pos, dt, n_insts in zip(comp_idx.tolist(), dts, insts):
                p0[pos] = dt
                p1[pos] = n_insts

        # Load dep flags and PEI decode columns.
        load_idx = np.flatnonzero(kinds == KIND_LOAD).tolist()
        for pos, dep in zip(load_idx, (a1[load_idx] != 0).tolist()):
            p2[pos] = dep
        pei_idx = np.flatnonzero(kinds == KIND_PEI).tolist()
        if pei_idx:
            for pos, op_i, wait, chain in zip(
                    pei_idx, a1[pei_idx].tolist(),
                    (a2[pei_idx] != 0).tolist(), a3[pei_idx].tolist()):
                p2[pos] = op_table[op_i]
                p3[pos] = wait
                p4[pos] = chain - 1 if chain else None

        # TLB pass: replay the core's private LRU TLB over this thread's
        # memory ops once.  The page mapping is the deterministic warm map,
        # so the per-op paddr and walk-latency columns are constants.
        mem_mask = ((kinds == KIND_LOAD) | (kinds == KIND_STORE)
                    | (kinds == KIND_PEI))
        mem_idx = np.flatnonzero(mem_mask).tolist()
        vaddrs = a0[mem_idx].tolist() if mem_idx else []
        cache: OrderedDict = OrderedDict()
        cache_get = cache.get
        cache_move = cache.move_to_end
        hits = misses = 0
        for pos, vaddr in zip(mem_idx, vaddrs):
            vpage = vaddr >> page_bits
            frame = cache_get(vpage)
            if frame is not None:
                cache_move(vpage)
                hits += 1
            else:
                misses += 1
                frame = mapping.get(vpage)
                if frame is None:
                    # Address outside the captured regions: first-touch
                    # order would depend on thread interleaving.
                    return None
                cache[vpage] = frame
                if len(cache) > tlb_entries:
                    cache.popitem(last=False)
                p1[pos] = walk_latency
            paddr = (frame << page_bits) | (vaddr & page_mask)
            p0[pos] = paddr
            blocks.add(paddr >> block_bits)

        span_kinds_all.append(span_kinds)
        span_ends_all.append(span_ends)
        p0_all.append(p0)
        p1_all.append(p1)
        p2_all.append(p2)
        p3_all.append(p3)
        p4_all.append(p4)
        final_tlb.append(list(cache.items()))
        tlb_hits.append(hits)
        tlb_misses.append(misses)

    tag_items = None
    if uses_monitor and blocks:
        # Vectorized XOR-fold of every block's partial tag, installed into
        # the monitor's tag memo at attach time.
        mon = machine.monitor
        blk = np.fromiter(blocks, dtype=np.int64, count=len(blocks))
        value = blk >> mon._set_bits
        tags = np.zeros_like(blk)
        tag_mask = np.int64(mon._tag_mask)
        while value.any():
            tags ^= value & tag_mask
            value >>= np.int64(mon.partial_tag_bits)
        tag_items = list(zip(blk.tolist(), tags.tolist()))

    return ColumnPlan(lengths, span_kinds_all, span_ends_all,
                      p0_all, p1_all, p2_all, p3_all, p4_all,
                      final_tlb, tlb_hits, tlb_misses, tag_items)


def _plan_for(system, trace, op_table) -> Optional[ColumnPlan]:
    uses_monitor = system.policy.uses_monitor
    key = (trace.fingerprint, system.config.fingerprint(), uses_monitor)
    if key in _PLAN_CACHE:
        _PLAN_CACHE.move_to_end(key)
        _PLAN_STATS["hits"] += 1
        return _PLAN_CACHE[key]
    _PLAN_STATS["misses"] += 1
    plan = _build_plan(trace, system.config, op_table, system.machine,
                       uses_monitor)
    _PLAN_CACHE[key] = plan  # None memoized too: don't retry a bad layout
    while len(_PLAN_CACHE) > _PLAN_CACHE_LIMIT:
        _PLAN_CACHE.popitem(last=False)
        _PLAN_STATS["evictions"] += 1
    return plan


# ----------------------------------------------------------------------
# Warm start
# ----------------------------------------------------------------------


def _warm(system, trace) -> None:
    """Warm caches over the trace's regions (``System._warm_caches``)."""
    system._warm_caches([(base, base + size)
                         for _name, base, size in trace.regions])


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------


def replay(system, trace, op_table, n_threads: int, batch_window: float,
           warm_start: bool, effective_cap: Optional[int]):
    """Columnar replay of ``trace``; None when the plan cannot apply.

    The caller (``System._run_trace``) has already validated thread count,
    page size and ops cap.  Preconditions checked here — and the scalar
    fallback they trigger — keep machine state bit-identical to scalar
    replay in every case the plan cannot prove deterministic.
    """
    if np is None or not warm_start:
        return None
    machine = system.machine
    page_table = machine.page_table
    # The plan's TLB/paddr columns assume a cold page table and cold TLBs
    # (a reused System replays through the scalar path instead).
    if page_table._mapping or page_table._next_sequence:
        return None
    cores = machine.cores
    if any(cores[tid].tlb._cache for tid in range(n_threads)):
        return None
    plan = _plan_for(system, trace, op_table)
    if plan is None:
        return None

    _warm(system, trace)
    if plan.tag_items is not None:
        machine.monitor._tags.update(plan.tag_items)

    _replay_loop(system, trace, plan, n_threads, batch_window)

    # Restore the live TLBs to the state scalar replay leaves behind.
    for tid in range(n_threads):
        tlb = cores[tid].tlb
        cache = tlb._cache
        for vpage, frame in plan.final_tlb[tid]:
            cache[vpage] = frame
        tlb.hits += plan.tlb_hits[tid]
        tlb.misses += plan.tlb_misses[tid]

    return system._collect(trace.workload_name, trace.footprint,
                           n_threads, effective_cap)


def _replay_loop(system: "System", trace, plan, n_threads: int,
                 batch_window: float) -> None:
    """The engine loop: scalar ``_run_trace`` with span-specialized bodies.

    Scheduling (laggard-first heap, horizon batching, barrier park/release,
    telemetry sampling points) is replicated exactly; the per-op bodies of
    load/store/compute spans are inlined over the plan columns with the
    core's hot state (time, instruction count, MLP window) held in locals.
    Every ``core.time`` addition happens in the scalar order with the
    scalar values, so timing rounds bit-identically.
    """
    machine = system.machine
    cores = machine.cores
    executor = machine.executor
    groups = trace.barrier_groups
    group_active: Dict[int, int] = defaultdict(int)
    for group in groups:
        group_active[group] += 1
    barrier_arrived: Dict[int, List[int]] = defaultdict(list)
    parked_count = 0
    indices = [0] * n_threads
    span_pos = [0] * n_threads
    lengths = plan.lengths

    heap = [(cores[tid].time, tid) for tid in range(n_threads)]
    heapq.heapify(heap)
    telemetry = system.telemetry

    def release_group(group: int) -> None:
        nonlocal parked_count
        waiting = barrier_arrived[group]
        resume = max(cores[tid].time for tid in waiting)
        for tid in waiting:
            cores[tid].time = resume
            heapq.heappush(heap, (resume, tid))
        parked_count -= len(waiting)
        waiting.clear()

    def finish_thread(tid: int) -> None:
        group = groups[tid]
        group_active[group] -= 1
        waiting = barrier_arrived[group]
        if waiting and len(waiting) == group_active[group]:
            release_group(group)

    heappop, heappush = heapq.heappop, heapq.heappush
    execute_pei = executor.execute_pei
    fence = executor.fence
    access = machine.hierarchy.access
    slots = machine.stats.slots
    span_kinds_all, span_ends_all = plan.span_kinds, plan.span_ends
    p0_all, p1_all, p2_all = plan.p0, plan.p1, plan.p2
    p3_all, p4_all = plan.p3, plan.p4

    while heap:
        _, tid = heappop(heap)
        core = cores[tid]
        p0, p1, p2 = p0_all[tid], p1_all[tid], p2_all[tid]
        p3, p4 = p3_all[tid], p4_all[tid]
        span_kinds = span_kinds_all[tid]
        span_ends = span_ends_all[tid]
        i = indices[tid]
        s = span_pos[tid]
        end = lengths[tid]
        horizon = heap[0][0] + batch_window if heap else float("inf")
        parked = False
        finished = False
        # Core hot state in locals; flushed at every exit and around the
        # executor/fence calls, which read and write the core directly.
        # The MLP window list is shared by identity and mutated in place.
        ctime = core.time
        instr = core.instructions
        last_load = core.last_load_completion
        window = core._window
        mlp = core.mlp
        cid = core.core_id
        inv_w = 1.0 / core.issue_width
        while True:
            if i >= end:
                finished = True
                break
            while i >= span_ends[s]:
                s += 1
            kind = span_kinds[s]
            stop = span_ends[s]
            if kind == KIND_LOAD:
                while i < stop:
                    t = ctime + (inv_w + p1[i])
                    if p2[i] and last_load > t:
                        t = last_load
                    if len(window) >= mlp:
                        oldest = heappop(window)
                        if oldest > t:
                            t = oldest
                    finish = access(cid, p0[i], False, t).finish
                    heappush(window, finish)
                    last_load = finish
                    instr += 1
                    slots[SLOT_CORE_LOADS] += 1.0
                    ctime = t
                    i += 1
                    if t > horizon:
                        break
            elif kind == KIND_PEI:
                core.time = ctime
                core.instructions = instr
                core.last_load_completion = last_load
                while i < stop:
                    execute_pei(core, p2[i], p0[i], p1[i], p3[i], p4[i])
                    i += 1
                    if core.time > horizon:
                        break
                ctime = core.time
                instr = core.instructions
                last_load = core.last_load_completion
            elif kind == KIND_COMPUTE:
                while i < stop:
                    ctime += p0[i]
                    instr += p1[i]
                    i += 1
                    if ctime > horizon:
                        break
            elif kind == KIND_STORE:
                while i < stop:
                    ctime += inv_w + p1[i]
                    if len(window) >= mlp:
                        oldest = heappop(window)
                        if oldest > ctime:
                            ctime = oldest
                    heappush(window, access(cid, p0[i], True, ctime).finish)
                    instr += 1
                    slots[SLOT_CORE_STORES] += 1.0
                    i += 1
                    if ctime > horizon:
                        break
            elif kind == KIND_FENCE:
                core.time = ctime
                core.instructions = instr
                core.last_load_completion = last_load
                while i < stop:
                    fence(core)
                    i += 1
                    if core.time > horizon:
                        break
                ctime = core.time
                instr = core.instructions
                last_load = core.last_load_completion
            elif kind == KIND_BARRIER:
                group = p0[i]
                i += 1
                # Flush before parking: release_group reads (and on release
                # overwrites) this core's time.
                core.time = ctime
                barrier_arrived[group].append(tid)
                parked_count += 1
                parked = True
                if len(barrier_arrived[group]) == group_active[group]:
                    release_group(group)
                ctime = core.time
                break
            else:
                raise ValueError(f"unknown operation kind {kind}")
            if ctime > horizon:
                break
        indices[tid] = i
        span_pos[tid] = s
        core.time = ctime
        core.instructions = instr
        core.last_load_completion = last_load
        if finished:
            finish_thread(tid)
        elif not parked:
            heappush(heap, (ctime, tid))
        if telemetry is not None and heap:
            telemetry.on_progress(machine, heap[0][0])

    if parked_count:
        raise RuntimeError(
            "barrier deadlock: threads still parked when the run drained"
        )

    for core in cores:
        core.drain()
