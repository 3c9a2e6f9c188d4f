"""End-to-end PEI execution: the sequences of Figures 4 and 5.

The executor owns the host-side PCUs (one per core) and reaches the
memory-side PCUs through their vaults.  For every PEI it composes:

* **host-side** (Fig. 4): operand-buffer allocation -> PMU (lock + locality
  advice) -> cache-block load through the core's own L1 path -> computation
  logic -> store back into the L1 (for writers) -> completion notification;
* **memory-side** (Fig. 5): operand-buffer allocation -> PMU -> back-
  invalidation/back-writeback -> operand shipping -> off-chip request packet
  -> vault DRAM read over TSVs -> memory-side PCU compute -> optional DRAM
  write -> off-chip response packet -> completion.

In the Ideal-Host configuration PEIs retire as if they were ordinary host
instructions: no operand buffers, a free infinite directory, and the core's
own MLP window provides the overlap.
"""

from typing import List, Optional, Tuple

from repro.cache.hierarchy import CacheHierarchy
from repro.core.isa import PimOp
from repro.core.pcu import Pcu
from repro.core.pmu import Pmu
from repro.core.tracer import FenceTrace, PeiTrace
from repro.cpu.core import CoreModel
from repro.mem.hmc import HmcSystem
from repro.obs.hooks import NULL_OBS, NullObs
from repro.sim.stat_keys import (
    SLOT_PEI_HOST_EXECUTED,
    SLOT_PEI_ISSUED,
    SLOT_PEI_MEM_EXECUTED,
    SLOT_PEI_OPERAND_BUFFER_STALL_CYCLES,
)
from repro.sim.stats import Stats


class PeiExecutor:
    """Executes PEIs on host-side or memory-side PCUs."""

    def __init__(
        self,
        host_pcus: List[Pcu],
        hmc: HmcSystem,
        pmu: Pmu,
        hierarchy: CacheHierarchy,
        stats: Stats,
        mmio_cost: float = 2.0,
    ):
        self.host_pcus = host_pcus
        self.hmc = hmc
        self.pmu = pmu
        self.hierarchy = hierarchy
        # Crossbar geometry flattened for the two inlined traversals in
        # _execute_memory_side (operand shipping and output return).
        self._xbar_ports = pmu.crossbar.ports
        self._n_xbar_ports = len(pmu.crossbar.ports)
        self._xbar_latency = pmu.crossbar.latency
        self.stats = stats
        self._slots = stats.slots  # batched counter fast path
        self.mmio_cost = mmio_cost
        # Telemetry sink (null object unless a Telemetry is attached); it
        # also receives the per-PEI and per-pfence trace events.
        self.obs: NullObs = NULL_OBS

    # ------------------------------------------------------------------

    def execute(
        self, core: CoreModel, op: PimOp, vaddr: int, wait_output: bool, chain=None
    ) -> float:
        """Run one PEI issued by ``core``; returns the PEI's completion time.

        Advances ``core.time`` to the point where the core may continue:
        after the issue (fire-and-forget) or after reading the output
        operands (``wait_output``).  A ``chain`` id serializes this PEI
        behind the previous PEI of the same chain (its input depends on that
        output) without blocking the core, modelling unrolled dependent
        probe sequences overlapped by the out-of-order window.
        """
        # core.translate inlined (runs once per PEI).
        paddr, tlb_latency = core.tlb.translate(vaddr)
        return self.execute_pei(core, op, paddr, tlb_latency, wait_output, chain)

    def execute_pei(
        self, core: CoreModel, op: PimOp, paddr: int, tlb_latency: float,
        wait_output: bool, chain=None
    ) -> float:
        """:meth:`execute` for a PEI whose translation is precomputed.

        The columnar replay engine resolves TLB outcomes at plan-compile
        time (per-thread address streams are deterministic); it hands the
        physical address and the page-walk latency in directly instead of
        consulting the core's TLB.
        """
        self._slots[SLOT_PEI_ISSUED] += 1.0
        core.time += tlb_latency
        block = paddr >> self.hierarchy.block_bits
        if chain is not None:
            ready = core.chain_completions.get(chain, 0.0)
            if ready > core.time:
                core.time = ready

        # Step 1: the host processor writes the input operands into the
        # PCU's memory-mapped registers and issues the PEI.  Ideal-Host
        # retires PEIs as ordinary instructions: the issue costs one issue
        # slot and the PMU visit below is free (Section 7's idealization),
        # making it Host-Only minus every PEI-management overhead.
        ideal = self.pmu._ideal_host
        core.time += (1.0 / core.issue_width) if ideal else self.mmio_cost
        core.instructions += 1
        pcu = self.host_pcus[core.core_id]
        issue_time = pcu.operand_buffer.allocate(core.time)
        if issue_time > core.time:
            # Operand buffer full: the host processor stalls (Section 4.2).
            self._slots[SLOT_PEI_OPERAND_BUFFER_STALL_CYCLES] += (
                issue_time - core.time)
            core.time = issue_time

        # Step 2: PMU — reader/writer lock and execution-location decision.
        pmu = self.pmu
        entry, decision_time, grant_time, on_host = pmu.begin_pei(
            core.core_id, block, op, issue_time)

        clean_time: Optional[float] = None
        if on_host:
            completion = self._execute_host_side(
                core, pcu, op, paddr, decision_time, grant_time
            )
            self._slots[SLOT_PEI_HOST_EXECUTED] += 1.0
            pcu.operand_buffer.release(completion)
        else:
            completion, clean_time = self._execute_memory_side(
                core, op, paddr, block, grant_time
            )
            self._slots[SLOT_PEI_MEM_EXECUTED] += 1.0
            if op.output_bytes > 0:
                # The entry's memory-mapped registers receive the output
                # operands (Fig. 5 step 8): held until completion.
                pcu.operand_buffer.release(completion)
            else:
                # An offloaded no-output PEI is tracked by its vault PCU's
                # operand buffer from hand-off onward (the 576-entry
                # in-flight budget of Section 6.1 counts host and vault
                # entries together); the host entry frees at dispatch.
                pcu.operand_buffer.release(grant_time)

        pmu.directory.release(entry, op.writes, completion)

        obs = self.obs
        if obs.enabled:
            obs.observe("queue.host_operand_buffer",
                        pcu.operand_buffer.in_flight)
            obs.pei(PeiTrace(
                core=core.core_id, op=op.mnemonic, block=block,
                on_host=on_host, issue_time=issue_time,
                grant_time=grant_time, completion=completion,
                decision_time=decision_time, clean_time=clean_time,
                clean_invalidate=None if clean_time is None else op.is_writer,
            ))
        if chain is not None:
            core.chain_completions[chain] = completion
        if wait_output:
            # Step 7/8: the host reads the output operands through the
            # memory-mapped registers once the PEI completes.
            if completion > core.time:
                core.time = completion
            if not ideal:
                core.time += self.mmio_cost
        return completion

    # ------------------------------------------------------------------
    # Fig. 4: host-side PEI execution
    # ------------------------------------------------------------------

    def _execute_host_side(
        self,
        core: CoreModel,
        pcu: Pcu,
        op: PimOp,
        paddr: int,
        fetch_time: float,
        grant_time: float,
    ) -> float:
        # Steps 3-5: the PCU loads the target block through the core's own
        # L1 (it shares the cache port, the MSHRs, and the hierarchy), runs
        # the computation logic, and stores back if the PEI is a writer.
        # The line fetch starts as soon as the PMU has decided on host-side
        # execution and overlaps any reader-writer-lock wait; only the
        # atomic read-modify-write itself is serialized under the lock.
        # Sharing the L1 means the access also occupies one of the core's
        # MSHR-bounded outstanding-miss slots.
        core.window_acquire()
        if core.time > fetch_time:
            fetch_time = core.time
        finish = self.hierarchy.access(core.core_id, paddr, op.writes, fetch_time)
        start = finish if finish > grant_time else grant_time
        # pcu.compute inlined (once per host-side PEI).
        occupancy = op.compute_cycles * pcu._compute_scale
        completion = pcu.compute_logic.acquire(start, occupancy) + occupancy
        core.window_release(completion)
        return completion

    # ------------------------------------------------------------------
    # Fig. 5: memory-side PEI execution
    # ------------------------------------------------------------------

    def _execute_memory_side(
        self, core: CoreModel, op: PimOp, paddr: int, block: int, time: float
    ) -> Tuple[float, float]:
        """Returns ``(completion, clean_time)`` — the latter is when main
        memory is guaranteed to hold the latest data (Fig. 5 step 3)."""
        # Step 3: clean any on-chip copy (back-invalidation / back-writeback)
        ready = self.pmu.clean_block_for_memory(block, op, time)
        # Step 4: input operands travel from the host-side PCU to the PMU
        # over the on-chip network (overlapped with step 3 — take the max).
        # Crossbar.traverse inlined.
        nbytes = 16 + op.input_bytes
        link = self._xbar_ports[core.core_id % self._n_xbar_ports]
        occupancy = nbytes / link.bytes_per_cycle
        if time > link.clock:
            gap = time - link.clock
            link.backlog = link.backlog - gap if link.backlog > gap else 0.0
            link.clock = time
        operands_ready = (time + link.backlog + occupancy
                          + self._xbar_latency)
        link.backlog += occupancy
        link.bytes_transferred += nbytes
        t = ready if ready > operands_ready else operands_ready
        # Step 5: the PMU packetizes the PIM operation and ships it.
        t = self.hmc.pim_send_request(t, op.input_bytes, paddr)
        # In the vault: claim a memory-side operand-buffer entry, fetch the
        # block over the TSVs, compute, and write back if needed.
        vault = self.hmc.vault_for(paddr)
        vpcu = vault.pcu
        if self.obs.enabled:
            self.obs.observe("queue.vault_operand_buffer",
                             vpcu.operand_buffer.in_flight)
        t = vpcu.operand_buffer.allocate(t)
        t = self.hmc.pim_read_block(t, paddr)
        # vpcu.compute inlined (once per memory-side PEI).
        occupancy = op.compute_cycles * vpcu._compute_scale
        t = vpcu.compute_logic.acquire(t, occupancy) + occupancy
        if op.writes:
            # The write back into DRAM is posted: the vault's controller
            # schedules a PEI's accesses as an inseparable group (Section
            # 4.3), so later accesses to the block observe the write without
            # the response having to wait for it.
            write_done = self.hmc.pim_write_block(t, paddr)
            vpcu.operand_buffer.release(write_done)
        else:
            vpcu.operand_buffer.release(t)
        # Step 6/7: response packet back to the PMU, outputs to the PCU.
        t = self.hmc.pim_send_response(t, op.output_bytes, paddr)
        # Crossbar.traverse inlined (PMU port back to the core).
        nbytes = 16 + op.output_bytes
        link = self._xbar_ports[self.pmu.pmu_port % self._n_xbar_ports]
        occupancy = nbytes / link.bytes_per_cycle
        if t > link.clock:
            gap = t - link.clock
            link.backlog = link.backlog - gap if link.backlog > gap else 0.0
            link.clock = t
        completion = t + link.backlog + occupancy + self._xbar_latency
        link.backlog += occupancy
        link.bytes_transferred += nbytes
        return completion, ready

    # ------------------------------------------------------------------

    def fence(self, core: CoreModel) -> None:
        """pfence semantics: drain the core and wait for in-flight PEIs."""
        core.drain()
        issue_time = core.time
        t = self.pmu.fence(core.time)
        if t > core.time:
            core.time = t
        core.instructions += 1
        if self.obs.enabled:
            self.obs.fence(FenceTrace(
                core=core.core_id, issue_time=issue_time, release_time=t,
            ))
