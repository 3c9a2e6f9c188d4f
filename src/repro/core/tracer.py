"""Per-PEI tracing: where did each PEI go and why, and where did its
latency come from.

The executor hands one :class:`PeiTrace` per executed PEI and one
:class:`FenceTrace` per pfence to its observability sink; the live sink,
:class:`~repro.obs.telemetry.Telemetry`, collects them in a
:class:`PeiTracer`.  This is a debugging/analysis aid for users of the
library — the simulator equivalent of a processor's performance-monitoring
trace — and is off by default (tracing every PEI of a long run costs
memory).

The combined :attr:`PeiTracer.events` stream (PEIs and fences interleaved
in record order, which equals PIM-directory acquire order because the
executor is synchronous) is what :mod:`repro.analysis.simsan` consumes to
check the Section 4.3 atomicity/coherence protocol post-hoc.
"""

from dataclasses import dataclass
from typing import List, Optional, Union


@dataclass(frozen=True)
class PeiTrace:
    """Everything observable about one PEI's execution.

    The protocol-relevant extras default to ``None`` so hand-built traces
    stay terse: ``decision_time`` is when the PMU fixed the execution
    location, ``clean_time``/``clean_invalidate`` record the back-
    invalidation (writer) or back-writeback (reader) performed before a
    memory-side PEI (``None`` for host-side execution).
    """

    core: int
    op: str
    block: int
    on_host: bool
    issue_time: float
    grant_time: float
    completion: float
    decision_time: Optional[float] = None
    clean_time: Optional[float] = None
    clean_invalidate: Optional[bool] = None

    @property
    def latency(self) -> float:
        return self.completion - self.issue_time

    @property
    def lock_wait(self) -> float:
        return max(0.0, self.grant_time - self.issue_time)


@dataclass(frozen=True)
class FenceTrace:
    """One pfence: issued by ``core`` and released once writers drained."""

    core: int
    issue_time: float
    release_time: float

    @property
    def stall(self) -> float:
        return max(0.0, self.release_time - self.issue_time)


TraceEvent = Union[PeiTrace, FenceTrace]


class PeiTracer:
    """Collects PeiTrace/FenceTrace records.

    ``capacity`` bounds the total number of retained events; excess events
    are counted in :attr:`dropped` (a truncated trace is flagged by the
    sanitizer, because protocol checks on it would be unsound).
    """

    def __init__(self, capacity: Optional[int] = None):
        self.records: List[PeiTrace] = []
        self.fences: List[FenceTrace] = []
        self.events: List[TraceEvent] = []
        self.capacity = capacity
        self.dropped = 0

    def _has_room(self) -> bool:
        return self.capacity is None or len(self.events) < self.capacity

    def record(self, trace: PeiTrace) -> None:
        if self._has_room():
            self.records.append(trace)
            self.events.append(trace)
        else:
            self.dropped += 1

    def record_fence(self, fence: FenceTrace) -> None:
        if self._has_room():
            self.fences.append(fence)
            self.events.append(fence)
        else:
            self.dropped += 1

    def __len__(self) -> int:
        return len(self.records)
