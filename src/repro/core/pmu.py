"""The PEI Management Unit (Section 4.3).

One PMU sits next to the shared L3 and coordinates every PCU in the system.
For each PEI it (1) takes the reader/writer lock in the PIM directory,
(2) decides the execution location via the locality monitor and the active
dispatch policy, and (3) for memory-side execution, cleans the target block
out of the cache hierarchy (back-invalidation for writers, back-writeback
for readers).  It also implements pfence.
"""

from typing import NamedTuple

from repro.cache.hierarchy import CacheHierarchy
from repro.core.dispatch import DispatchPolicy, balanced_choice
from repro.core.isa import PimOp
from repro.core.locality_monitor import LocalityMonitor
from repro.core.pim_directory import PimDirectory
from repro.mem.link import OffChipChannel
from repro.obs.hooks import NULL_OBS
from repro.sim.stat_keys import (
    SLOT_PEI_BALANCED_HOST_OVERRIDES,
    SLOT_PEI_HOST_DISPATCHED,
    SLOT_PEI_MEM_DISPATCHED,
    SLOT_PEI_PFENCES,
)
from repro.sim.stats import Stats
from repro.xbar.crossbar import Crossbar


class PmuGrant(NamedTuple):
    """Outcome of a PEI's PMU visit.

    A NamedTuple, not a dataclass: one is built per PEI, and NamedTuple
    construction costs less than half of a frozen dataclass's.

    ``decision_time`` is when the PMU has decided the execution location
    (directory + monitor access latency paid, but no lock waiting) —
    the host-side PCU may start fetching the target block speculatively at
    this point.  ``grant_time`` additionally includes waiting for the
    reader-writer lock; computation that mutates or reads the block
    atomically must not start before it.
    """

    entry: int
    decision_time: float
    grant_time: float
    on_host: bool


class Pmu:
    """Atomicity, coherence, and locality management for all PEIs."""

    def __init__(
        self,
        directory: PimDirectory,
        monitor: LocalityMonitor,
        hierarchy: CacheHierarchy,
        channel: OffChipChannel,
        crossbar: Crossbar,
        pmu_port: int,
        policy: DispatchPolicy,
        stats: Stats,
    ):
        self.directory = directory
        self.monitor = monitor
        self.hierarchy = hierarchy
        self.channel = channel
        self.crossbar = crossbar
        # Crossbar geometry flattened for the inlined control-packet
        # traversal in begin_pei (once per non-ideal PEI).
        self._xbar_ports = crossbar.ports
        self._n_xbar_ports = len(crossbar.ports)
        self._xbar_latency = crossbar.latency
        self.pmu_port = pmu_port
        self.policy = policy  # property: also derives the dispatch flags
        self.stats = stats
        self._slots = stats.slots  # batched counter fast path
        # Telemetry sink (null object unless a Telemetry is attached).
        self.obs = NULL_OBS

    @property
    def policy(self) -> DispatchPolicy:
        return self._policy

    @policy.setter
    def policy(self, policy: DispatchPolicy) -> None:
        # Enum member and enum-property reads cost hundreds of nanoseconds
        # each on CPython, and the admission path consults the policy
        # several times per PEI — so every policy-derived predicate is
        # precomputed here.  The differential verifier reassigns ``policy``
        # mid-replay, which is why this is a setter and not __init__ code.
        self._policy = policy
        self._ideal_host = policy is DispatchPolicy.IDEAL_HOST
        self._uses_monitor = policy.uses_monitor
        self._pim_only = policy is DispatchPolicy.PIM_ONLY
        self._always_host = policy in (DispatchPolicy.HOST_ONLY,
                                       DispatchPolicy.IDEAL_HOST)
        self._balanced = policy.is_balanced

    # ------------------------------------------------------------------
    # PEI admission (steps 2 of Figs. 4 and 5)
    # ------------------------------------------------------------------

    def begin_pei(self, core_port: int, block: int, op: PimOp, time: float) -> PmuGrant:
        """Admit a PEI: control message to the PMU, lock, location decision.

        Under the Ideal-Host configuration the PMU visit is free (Section 7:
        an infinitely large, zero-cycle PIM directory and no monitor), so the
        control-packet hop is skipped as well.
        """
        if self._ideal_host:
            entry, grant = self.directory.acquire(block, op.writes, time)
            return PmuGrant(entry=entry, decision_time=time, grant_time=grant,
                            on_host=True)
        # The host-side PCU reaches the PMU over the on-chip network with a
        # small control packet (operation type + target block address).
        # Crossbar.traverse inlined.
        link = self._xbar_ports[core_port % self._n_xbar_ports]
        occupancy = 16 / link.bytes_per_cycle
        if time > link.clock:
            gap = time - link.clock
            link.backlog = link.backlog - gap if link.backlog > gap else 0.0
            link.clock = time
        t = time + link.backlog + occupancy + self._xbar_latency
        link.backlog += occupancy
        link.busy_cycles += occupancy
        link.served += 1
        link.bytes_transferred += 16
        entry, grant = self.directory.acquire(block, op.writes, t)
        decision = t + self.directory.latency
        on_host = self._decide_location(block, op, decision)
        if self._uses_monitor:
            decision += self.monitor.latency
        if grant < decision:
            grant = decision
        if on_host:
            self._slots[SLOT_PEI_HOST_DISPATCHED] += 1.0
        else:
            self._slots[SLOT_PEI_MEM_DISPATCHED] += 1.0
            if self._uses_monitor:
                self.monitor.note_pim_issue(block)
        return PmuGrant(entry=entry, decision_time=decision, grant_time=grant,
                        on_host=on_host)

    def _decide_location(self, block: int, op: PimOp, time: float) -> bool:
        if self._pim_only:
            return False
        if self._always_host:
            return True
        if self.monitor.advise_host(block):
            return True
        if self._balanced:
            host = balanced_choice(op, self.channel, time,
                                   block_size=self.hierarchy.block_size,
                                   obs=self.obs)
            if host:
                self._slots[SLOT_PEI_BALANCED_HOST_OVERRIDES] += 1.0
            return host
        return False

    # ------------------------------------------------------------------
    # Coherence management for memory-side execution (step 3 of Fig. 5)
    # ------------------------------------------------------------------

    def clean_block_for_memory(self, block: int, op: PimOp, time: float) -> float:
        """Back-invalidate (writer) / back-writeback (reader) the block.

        Returns the time main memory is guaranteed to hold the latest data.
        """
        ready, _ = self.hierarchy.flush_block(block, invalidate=op.writes, time=time)
        if self.obs.enabled:
            self.obs.observe("pmu.clean_latency", ready - time)
        return ready

    # ------------------------------------------------------------------
    # Completion and fencing
    # ------------------------------------------------------------------

    def finish_pei(self, entry: int, op: PimOp, completion: float) -> None:
        self.directory.release(entry, op.writes, completion)

    def fence(self, time: float) -> float:
        """pfence: block until all previously issued writer PEIs complete."""
        self._slots[SLOT_PEI_PFENCES] += 1.0
        return self.directory.fence_time(time)
