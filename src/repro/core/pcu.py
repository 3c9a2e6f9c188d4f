"""PEI Computation Units (Section 4.2).

A PCU is computation logic plus a small operand buffer.  The operand buffer
is what exposes memory-level parallelism across PEIs: a PEI claims an entry
and immediately issues its block fetch even while the computation logic is
busy, so up to ``entries`` PEIs overlap their memory accesses per PCU.  When
the buffer is full, the next PEI stalls until the oldest in-flight PEI
completes — exactly the serialization the Fig. 11a sweep measures.
"""

import heapq
from typing import List

from repro.core.isa import PimOp
from repro.sim.clock import ClockDomain
from repro.sim.resource import Resource


class OperandBuffer:
    """A fixed set of in-flight PEI slots tracked by completion time."""

    __slots__ = ("entries", "_inflight", "stalls")

    def __init__(self, entries: int):
        if entries <= 0:
            raise ValueError(f"operand buffer needs at least one entry, got {entries}")
        self.entries = entries
        self._inflight: List[float] = []
        self.stalls = 0

    def allocate(self, time: float) -> float:
        """Claim an entry; return the time the claim succeeds.

        If all entries hold in-flight PEIs, the caller waits for the one
        finishing earliest.
        """
        if len(self._inflight) < self.entries:
            return time
        earliest = heapq.heappop(self._inflight)
        if earliest > time:
            self.stalls += 1
            return earliest
        return time

    def release(self, completion: float) -> None:
        """Record the completion time of the PEI occupying the claimed entry."""
        heapq.heappush(self._inflight, completion)

    @property
    def in_flight(self) -> int:
        return len(self._inflight)

    def drain_time(self, time: float) -> float:
        """Time when every in-flight PEI has completed."""
        if not self._inflight:
            return time
        return max(time, max(self._inflight))


class Pcu:
    """One PEI Computation Unit (host-side per core, memory-side per vault)."""

    __slots__ = ("name", "clock", "issue_width", "operand_buffer",
                 "compute_logic", "_compute_scale")

    def __init__(
        self,
        name: str,
        clock: ClockDomain,
        operand_buffer_entries: int = 4,
        issue_width: int = 1,
    ):
        if issue_width <= 0:
            raise ValueError(f"issue width must be positive, got {issue_width}")
        self.name = name
        self.clock = clock
        self.issue_width = issue_width
        self.operand_buffer = OperandBuffer(operand_buffer_entries)
        self.compute_logic = Resource(f"{name}.alu")
        # Host-cycles-per-device-cycle over the issue width, precomputed:
        # compute() runs once per PEI.
        self._compute_scale = clock.cycles(1.0) / issue_width

    def compute(self, arrival: float, op: PimOp) -> float:
        """Run ``op`` on the computation logic; return the completion time.

        The occupancy is the operation's compute cycles converted into this
        PCU's clock domain and divided by the issue width (Fig. 11b's knob).
        """
        occupancy = op.compute_cycles * self._compute_scale
        return self.compute_logic.acquire(arrival, occupancy) + occupancy
