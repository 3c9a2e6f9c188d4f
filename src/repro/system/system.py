"""The top-level simulated system and its run engine.

The engine interleaves the threads' operation streams in approximate
global-time order: a heap keyed by core time always advances the laggard
thread, and each popped thread processes a small batch of operations
before re-entering the heap.  Shared-resource contention (links, DRAM banks,
L3 banks, PCU logic) is handled by the resources themselves, so the engine
only has to keep threads roughly synchronized.

Every run replays a :class:`CompiledTrace`.  A live workload is first
captured by :func:`repro.cpu.trace.capture_trace`, whose round-robin
scheduler alone fixes the functional interleaving (the order in which the
threads' algorithms read each other's writes); the timing engine then
replays that stream through an index-based inner loop over compact arrays
— no generator resumption, no per-op object construction, locals-bound
dispatch — or through the columnar engine (:mod:`repro.system.columnar`),
which is bit-identical to it.
"""

import heapq
from collections import defaultdict
from typing import Dict, List, Optional, Union

from repro.core.dispatch import DispatchPolicy
from repro.core.isa import PIM_OPS
from repro.cpu.trace import (
    KIND_BARRIER,
    KIND_COMPUTE,
    KIND_FENCE,
    KIND_LOAD,
    KIND_PEI,
    KIND_STORE,
    CompiledTrace,
    TraceError,
    capture_trace,
)
from repro.energy.model import EnergyModel
from repro.energy.params import EnergyParams
from repro.obs.sampler import live_gauges
from repro.obs.telemetry import Telemetry
from repro.system.builder import build_machine
from repro.system.config import SystemConfig, scaled_config
from repro.system.result import RunResult
from repro.workloads.base import Workload


class System:
    """A complete machine instance ready to run one workload.

    Machine state (caches, monitor, link counters) persists across ``run``
    calls; experiments create a fresh System per measured run so every
    configuration starts cold.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        policy: DispatchPolicy = DispatchPolicy.LOCALITY_AWARE,
        energy_params: Optional[EnergyParams] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.config = config if config is not None else scaled_config()
        self.policy = policy
        self.machine = build_machine(self.config, policy)
        self.energy_model = EnergyModel(energy_params)
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.attach(self.machine)

    # Convenience accessors --------------------------------------------

    @property
    def stats(self):
        return self.machine.stats

    @property
    def cores(self):
        return self.machine.cores

    @property
    def hierarchy(self):
        return self.machine.hierarchy

    @property
    def pmu(self):
        return self.machine.pmu

    @property
    def executor(self):
        return self.machine.executor

    @property
    def hmc(self):
        return self.machine.hmc

    # ------------------------------------------------------------------

    def run(
        self,
        workload: Union[Workload, CompiledTrace],
        max_ops_per_thread: Optional[int] = None,
        n_threads: Optional[int] = None,
        batch_window: float = 256.0,
        warm_start: bool = True,
        engine: str = "auto",
    ) -> RunResult:
        """Simulate ``workload``; returns the collected metrics.

        ``workload`` may be a live :class:`Workload`, which is first
        captured by :func:`~repro.cpu.trace.capture_trace` (its functional
        algorithm executes then, as a side effect), or a
        :class:`CompiledTrace` captured earlier.  Either way the run replays
        the captured stream, so a direct run and a figure's replay of the
        same capture are bit-identical.  The capture materializes the whole
        stream (~33 B/op before replay unboxes it; uncapped large inputs
        reach 9.5-54.3 M ops, BFS to WCC), so pass a cap unless the input is
        small, as the figures and examples do.

        ``max_ops_per_thread`` caps each thread's operation count — the
        analogue of the paper's fixed two-billion-instruction simulation
        windows.  The cap cuts the stream at capture, so every
        configuration replaying one capture simulates identical work.

        ``warm_start`` emulates the paper's methodology of simulating after
        the initialization phase: the initialization sweep that wrote the
        data leaves the last-level cache and the locality monitor populated
        with the most recently initialized blocks.

        ``engine`` selects the replay engine: ``"auto"`` tries the columnar
        plan-compiled engine (:mod:`repro.system.columnar`) and falls back
        to the scalar loop whenever the plan cannot prove bit-identity;
        ``"scalar"`` forces the scalar loop; ``"columnar"`` forces the
        columnar engine and raises :class:`TraceError` when it is
        unavailable.  ``engine`` only shapes how the stream replays, never
        the results.
        """
        if engine not in ("auto", "scalar", "columnar"):
            raise ValueError(
                f"unknown replay engine {engine!r}; "
                f"choose 'auto', 'scalar' or 'columnar'")
        if not isinstance(workload, CompiledTrace):
            if n_threads is None:
                n_threads = self.config.n_cores
            if n_threads > self.config.n_cores:
                raise ValueError(
                    f"{n_threads} threads exceed {self.config.n_cores} cores"
                )
            workload = capture_trace(workload, n_threads, max_ops_per_thread,
                                     self.config.page_size)
        return self._run_trace(workload, max_ops_per_thread, n_threads,
                               batch_window, warm_start, engine)

    # ------------------------------------------------------------------

    def _run_trace(
        self,
        trace: CompiledTrace,
        max_ops_per_thread: Optional[int],
        n_threads: Optional[int],
        batch_window: float,
        warm_start: bool,
        engine: str = "auto",
    ) -> RunResult:
        """Replay a compiled trace through the array-based fast path.

        The trace pins the stream-shaping inputs (thread count, ops cap,
        page size); mismatching replay arguments are rejected rather than
        silently replaying a stream the capture never produced under them.
        """
        machine = self.machine
        config = self.config
        if trace.page_size != config.page_size:
            raise TraceError(
                f"trace regions were laid out with page size "
                f"{trace.page_size}, config uses {config.page_size}")
        if n_threads is None:
            n_threads = trace.n_threads
        if n_threads != trace.n_threads:
            raise TraceError(
                f"trace was captured with {trace.n_threads} threads, "
                f"cannot replay with {n_threads}")
        if n_threads > config.n_cores:
            raise ValueError(
                f"{n_threads} threads exceed {config.n_cores} cores"
            )
        if (max_ops_per_thread is not None
                and max_ops_per_thread != trace.max_ops_per_thread):
            raise TraceError(
                f"trace was captured under ops cap "
                f"{trace.max_ops_per_thread}, cannot replay under "
                f"{max_ops_per_thread}")
        try:
            op_table = [PIM_OPS[m] for m in trace.op_mnemonics]
        except KeyError as exc:
            raise TraceError(
                f"trace references unknown PIM op {exc.args[0]!r}") from exc
        # The cap that actually shaped the stream: the trace was cut at
        # capture time, so a None argument inherits the captured cap.  Both
        # engines record this effective value in the RunResult metadata.
        effective_cap = (max_ops_per_thread if max_ops_per_thread is not None
                         else trace.max_ops_per_thread)
        if engine != "scalar":
            # Deferred import: repro.system.columnar needs numpy, and the
            # numpy-free consumers (repro.analysis, repro.verify) import
            # System — the columnar engine must stay off their import path.
            from repro.system import columnar
            plan_before = columnar.plan_cache_counters()
            result = columnar.replay(self, trace, op_table, n_threads,
                                     batch_window, warm_start, effective_cap)
            if result is not None:
                # Transient (underscore-prefixed, dropped by to_dict):
                # whether this run's ColumnPlan was cached depends on what
                # the process replayed before, so the delta is scheduling
                # observability, never part of the result proper.
                plan_after = columnar.plan_cache_counters()
                result.metadata["_plan_cache"] = {
                    key: plan_after[key] - plan_before[key]
                    for key in plan_after}
                return result
            if engine == "columnar":
                raise TraceError(
                    "columnar replay unavailable for this trace/machine "
                    "state (requires numpy, warm_start=True, a cold page "
                    "table and TLBs, and page-aligned regions covering "
                    "every traced address)")
        if warm_start:
            self._warm_caches(
                [(base, base + size) for _, base, size in trace.regions])
        groups = trace.barrier_groups

        cores = machine.cores
        executor = machine.executor
        # Unbox the compact arrays once: list indexing hands back existing
        # int objects, where array('q') indexing would box a fresh int for
        # every operand read in the loop below.
        kinds_by_tid = [k.tolist() for k in trace.kinds]
        a0_by_tid = [a.tolist() for a in trace.a0]
        a1_by_tid = [a.tolist() for a in trace.a1]
        a2_by_tid = [a.tolist() for a in trace.a2]
        a3_by_tid = [a.tolist() for a in trace.a3]
        lengths = [len(k) for k in kinds_by_tid]
        indices = [0] * n_threads
        group_active: Dict[int, int] = defaultdict(int)
        for group in groups:
            group_active[group] += 1
        barrier_arrived: Dict[int, List[int]] = defaultdict(list)
        parked_count = 0

        heap = [(cores[tid].time, tid) for tid in range(n_threads)]
        heapq.heapify(heap)
        telemetry = self.telemetry

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
        execute = executor.execute
        fence = executor.fence
        while heap:
            _, tid = heappop(heap)
            core = cores[tid]
            do_load, do_store = core.do_load, core.do_store
            do_compute = core.do_compute
            kinds = kinds_by_tid[tid]
            a0, a1 = a0_by_tid[tid], a1_by_tid[tid]
            a2, a3 = a2_by_tid[tid], a3_by_tid[tid]
            i = indices[tid]
            end = lengths[tid]
            horizon = heap[0][0] + batch_window if heap else float("inf")
            parked = False
            finished = False
            while True:
                # The end-of-array check sits at the loop top, as in the
                # columnar loop: a thread whose batch broke on the horizon
                # right at its last op re-enters the heap and finishes on
                # its *next* pop, so both engines do barrier-group
                # bookkeeping in the same order.
                if i >= end:
                    finished = True
                    break
                kind = kinds[i]
                if kind == KIND_LOAD:
                    do_load(a0[i], bool(a1[i]))
                elif kind == KIND_PEI:
                    chain = a3[i]
                    execute(core, op_table[a1[i]], a0[i], bool(a2[i]),
                            chain - 1 if chain else None)
                elif kind == KIND_COMPUTE:
                    do_compute(a0[i])
                elif kind == KIND_STORE:
                    do_store(a0[i])
                elif kind == KIND_FENCE:
                    fence(core)
                elif kind == KIND_BARRIER:
                    group = a0[i]
                    i += 1
                    barrier_arrived[group].append(tid)
                    parked_count += 1
                    parked = True
                    if len(barrier_arrived[group]) == group_active[group]:
                        release_group(group)
                    break
                else:
                    raise ValueError(f"unknown operation kind {kind}")
                i += 1
                if core.time > horizon:
                    break
            indices[tid] = i
            if finished:
                finish_thread(tid)
            elif not parked:
                heappush(heap, (core.time, tid))
            if telemetry is not None and heap:
                telemetry.on_progress(machine, heap[0][0])

        if parked_count:
            raise RuntimeError(
                "barrier deadlock: threads still parked when the run drained"
            )

        for core in cores:
            core.drain()
        return self._collect(trace.workload_name, trace.footprint,
                             n_threads, effective_cap)

    # ------------------------------------------------------------------

    def _warm_caches(self, spans: List[tuple]) -> None:
        """Replay the skipped initialization sweep into the L3 and monitor.

        The sweep touches every block of the ``(base, end)`` spans in order,
        inserting it (clean) into the L3 and, when the policy uses the
        locality monitor, mirroring the access there — the state a real run
        has right after its (skipped) initialization phase.  No statistics
        or timing are charged: the shared Stats object is suspended
        throughout, so e.g. monitor evictions during warming never pollute
        the measured run.

        Spans are region extents, page-aligned at the base (AddressSpace
        allocations are page-aligned), so each page is faulted once in
        touch order and its physical blocks are contiguous.  Under LRU only
        the last L3-capacity of the sweep survives: on empty sets with every
        block touched once, :meth:`_fill_lru` computes that state directly.
        Any other machine replays the sweep block by block through the
        generic insert/observe paths.
        """
        machine = self.machine
        l3 = machine.hierarchy.l3
        monitor = machine.monitor if self.policy.uses_monitor else None
        translate = machine.page_table.translate
        block_size = self.config.block_size
        block_bits = machine.hierarchy.block_bits
        page_size = self.config.page_size
        pages = []  # (first physical block, block count) in touch order
        with machine.stats.suspended():
            for base, end in spans:
                for page_vaddr in range(base, end, page_size):
                    page_end = min(page_vaddr + page_size, end)
                    pages.append((translate(page_vaddr) >> block_bits,
                                  (page_end - page_vaddr + block_size - 1)
                                  // block_size))
            if (l3.policy == "lru"
                    and not any(base % page_size for base, _ in spans)
                    and len({first for first, _ in pages}) == len(pages)
                    and not any(l3.sets)
                    and not (monitor is not None and any(monitor._sets))):
                self._fill_lru(pages, monitor)
                return
            insert = l3.insert
            observe = (monitor.observe_llc_access if monitor is not None
                       else None)
            for first, count in pages:
                for block in range(first, first + count):
                    insert(block, dirty=False)
                    if observe is not None:
                        observe(block)

    def _fill_lru(self, pages: List[tuple], monitor) -> None:
        """Install the LRU sweep's final state, walking the touches backwards.

        Each set keeps its ``ways`` most recently touched distinct keys
        (LRU's stack property); the walk stops once every set is full, and
        the skipped insertions count as L3 evictions.  Requires every block
        of ``pages`` distinct and the L3 and monitor sets empty.
        """
        l3 = self.machine.hierarchy.l3
        l3_mask, l3_ways = l3._set_mask, l3.n_ways
        l3_keep: List[list] = [[] for _ in l3.sets]  # most recent first
        l3_open = len(l3_keep)
        m_open = 0
        if monitor is not None:
            m_mask, m_ways = monitor.n_sets - 1, monitor.n_ways
            m_keep: List[dict] = [{} for _ in monitor._sets]
            m_open = len(m_keep)
            set_bits, tag_bits = monitor._set_bits, monitor.partial_tag_bits
            tag_mask = monitor._tag_mask
        for first, count in reversed(pages):
            for block in range(first + count - 1, first - 1, -1):
                keep = l3_keep[block & l3_mask]
                if len(keep) < l3_ways:
                    keep.append(block)
                    if len(keep) == l3_ways:
                        l3_open -= 1
                if m_open:
                    seen = m_keep[block & m_mask]
                    if len(seen) < m_ways:
                        # LocalityMonitor.partial_tag, inlined.
                        value = block >> set_bits
                        tag = 0
                        while value:
                            tag ^= value & tag_mask
                            value >>= tag_bits
                        # Partial tags alias: a tag already kept was
                        # touched later, so this older touch is moot.
                        if tag not in seen:
                            seen[tag] = False
                            if len(seen) == m_ways:
                                m_open -= 1
            if not l3_open and not m_open:
                break
        kept = 0
        for line_set, keep in zip(l3.sets, l3_keep):
            for block in reversed(keep):
                line_set[block] = False
            kept += len(keep)
        l3.evictions += sum(count for _, count in pages) - kept
        if monitor is not None:
            for line_set, seen in zip(monitor._sets, m_keep):
                for tag in reversed(seen):
                    line_set[tag] = False

    # ------------------------------------------------------------------

    def _collect(
        self,
        workload_name: str,
        footprint: int,
        n_threads: int,
        max_ops_per_thread: Optional[int],
    ) -> RunResult:
        machine = self.machine
        stats = machine.stats
        cycles = max(core.time for core in machine.cores)
        # Publish the live gauges through the same helper the interval
        # sampler uses, so a final telemetry sample matches RunResult.stats
        # exactly.
        for name, value in live_gauges(machine, cycles).items():
            stats.set(name, value)
        if self.telemetry is not None:
            self.telemetry.finalize(machine, cycles)
        per_core = [core.instructions for core in machine.cores]
        energy = self.energy_model.compute(stats)
        return RunResult(
            workload=workload_name,
            policy=self.policy.value,
            cycles=cycles,
            instructions=sum(per_core),
            per_core_instructions=per_core,
            stats=stats.to_dict(),
            energy=energy,
            metadata={
                "n_threads": n_threads,
                "max_ops_per_thread": max_ops_per_thread,
                "footprint_bytes": footprint,
                "config_l3_size": self.config.l3_size,
            },
        )
