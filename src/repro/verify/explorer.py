"""Bounded exhaustive exploration of PEI interleavings (the real directory).

For every :class:`~repro.verify.schedule.Schedule` at the configured bound
and every directory geometry, :func:`replay` drives a **fresh, real**
:class:`~repro.core.pim_directory.PimDirectory` through the schedule exactly
as the executor would (acquire → occupy → release, fences via
``fence_time``) and records the timeline the way the simulator's tracer
does: one :class:`~repro.core.tracer.PeiTrace` or
:class:`~repro.core.tracer.FenceTrace` per step.  :func:`judge` then holds
every timeline to two references:

========  ==========================================================
SAN001    two writer PEIs of one block overlap in time
SAN002    a reader PEI of a block overlaps a writer PEI of that block
SAN003    a memory-side PEI's clean lies outside [grant, completion]
SAN004    a PEI's grant precedes its issue or its completion precedes
          its grant, or a pfence releases before its own issue
SAN005    a pfence released before a previously issued writer PEI
          completed
SAN009    two PEIs whose different blocks share one directory entry
          overlap (non-ideal geometries only)
VER007    the real directory granted a PEI (or released a pfence) at
          a different time, or into a different entry, than the
          golden model admits
VER008    the golden model's own hardware-width bookkeeping tripped
          while it computed its admissible timeline — a checker
          defect, never a verdict on the real timeline
========  ==========================================================

The SAN codes come from :func:`repro.analysis.simsan.sanitize_events`, the
one statement of the Section 4.3/3.2 protocol invariants that also
monitors real runs and judges the coherence pass
(:mod:`repro.verify.coherence`, VER009+).  VER007/VER008 replay the
schedule through the paper-literal
:class:`~repro.verify.golden.GoldenDirectory`, which receives only each
step's block, issue time and occupancy and derives its own grants.
Because the two encodings perform the same max/+ float arithmetic on
correct implementations, that comparison uses a tight tolerance: a
mutation as small as dropping the handoff penalty or skipping the
directory latency shifts a grant by whole cycles and is caught at once.
"""

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.simsan import sanitize_events
from repro.core.pim_directory import PimDirectory
from repro.core.tracer import FenceTrace, PeiTrace, TraceEvent
from repro.sim.stats import Stats
from repro.util.bitops import ilog2, xor_fold
from repro.verify.golden import GoldenDirectory, GoldenError
from repro.verify.schedule import (
    READER_OP,
    WRITER_OP,
    DirectoryCase,
    ExploreBounds,
    FenceStep,
    PeiStep,
    Schedule,
    default_directory_cases,
    enumerate_schedules,
)

__all__ = [
    "Violation",
    "ExploreReport",
    "times_close",
    "build_directory",
    "occupancy_of",
    "replay",
    "golden_index_fn",
    "build_golden",
    "sanitize",
    "diff_schedule",
    "judge",
    "explore",
]

#: Tolerance for "these two timestamps should be the same computation".
TIME_TOLERANCE = 1e-9


def times_close(a: float, b: float, tol: float = TIME_TOLERANCE) -> bool:
    """Equality-of-intent for timestamps without float `==` brittleness."""
    return abs(a - b) <= tol


@dataclass(frozen=True)
class Violation:
    """One invariant breach on one schedule."""

    code: str
    case: str
    schedule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code} [{self.case}] {self.schedule}: {self.detail}"


def _violations(case_name: str, sched: Schedule,
                found: Sequence[Tuple[str, str]]) -> List[Violation]:
    """(code, detail) pairs as violations; describes the schedule only
    when there is something to report."""
    if not found:
        return []
    desc = sched.describe()
    return [Violation(code=code, case=case_name, schedule=desc, detail=detail)
            for code, detail in found]


def build_directory(case: DirectoryCase) -> PimDirectory:
    """A fresh real directory configured for one geometry case."""
    return PimDirectory(
        entries=case.entries,
        latency=case.latency,
        stats=Stats(),
        ideal=case.ideal,
        handoff_penalty=case.handoff_penalty,
    )


def occupancy_of(step: PeiStep, memory_lead: float) -> float:
    """Lock occupancy after the grant: compute time plus, for memory-side
    execution, the clean/operand-ship lead the executor pays first."""
    lead = 0.0 if step.on_host else memory_lead
    return lead + step.duration


@functools.lru_cache(maxsize=1 << 14)
def _pei_trace(op: str, block: int, on_host: bool, issue: float,
               grant: float, completion: float, clean_time: Optional[float],
               clean_invalidate: Optional[bool]) -> PeiTrace:
    """One interned, immutable PEI event.

    The sweep's half-million timelines repeat a few thousand distinct
    events, and looking one up costs about a tenth of building a frozen
    :class:`~repro.core.tracer.PeiTrace` (the interned-steps idiom of
    :mod:`repro.verify.schedule`, applied to the replay's output).
    """
    return PeiTrace(core=0, op=op, block=block, on_host=on_host,
                    issue_time=issue, grant_time=grant, completion=completion,
                    clean_time=clean_time, clean_invalidate=clean_invalidate)


def replay(
    case: DirectoryCase,
    sched: Schedule,
    memory_lead: float,
) -> Tuple[List[TraceEvent], List[Optional[int]]]:
    """Drive a fresh real directory through one schedule.

    Returns one trace event per step, in step order, and the entry
    ``acquire`` gave each step (``None`` for a pfence).  Mirrors the
    executor's synchronous discipline: each PEI acquires at its issue time,
    its completion is computed from the grant, and the release is recorded
    immediately (the directory holds completions as future timestamps,
    exactly as :class:`~repro.core.executor.PeiExecutor` does).  A
    memory-side PEI cleans its block at the grant — back-invalidation for a
    writer, back-writeback for a reader — and the clean is ready
    ``memory_lead`` later, which is when its compute starts.  The explorer
    models no cores, so every event carries core 0.
    """
    directory = build_directory(case)
    events: List[TraceEvent] = []
    entries: List[Optional[int]] = []
    for i, step in enumerate(sched.steps):
        issue = sched.issue(i)
        if isinstance(step, FenceStep):
            events.append(FenceTrace(core=0, issue_time=issue,
                                     release_time=directory.fence_time(issue)))
            entries.append(None)
            continue
        block = case.blocks[step.block]
        entry, grant = directory.acquire(block, step.is_writer, issue)
        completion = grant + occupancy_of(step, memory_lead)
        directory.release(entry, step.is_writer, completion)
        op = WRITER_OP if step.is_writer else READER_OP
        if step.on_host:
            events.append(_pei_trace(op.mnemonic, block, True, issue, grant,
                                     completion, None, None))
        else:
            events.append(_pei_trace(op.mnemonic, block, False, issue, grant,
                                     completion, grant + memory_lead,
                                     step.is_writer))
        entries.append(entry)
    return events, entries


# ----------------------------------------------------------------------
# The judge: simsan plus the golden differential
# ----------------------------------------------------------------------


def golden_index_fn(case: DirectoryCase) -> Callable[[int], int]:
    """The geometry's index function, derived independently of PimDirectory.

    Computed straight from ``xor_fold`` so a directory whose ``acquire``
    folds a block to the wrong entry diverges from the golden expectation
    instead of poisoning both sides.
    """
    if case.ideal:
        return lambda block: block
    bits = ilog2(case.entries)
    return lambda block: xor_fold(block, bits)


def build_golden(case: DirectoryCase) -> GoldenDirectory:
    return GoldenDirectory(
        index_fn=golden_index_fn(case),
        entries=case.entries,
        latency=case.latency,
        handoff_penalty=case.handoff_penalty,
        ideal=case.ideal,
    )


def sanitize(
    events: Sequence[TraceEvent],
    directory_entries: Optional[int],
    case_name: str,
    sched: Schedule,
) -> List[Violation]:
    """Run simsan over one replayed timeline.

    ``directory_entries`` is the tag-less table's size, enabling the
    entry-granular SAN009/SAN010; pass ``None`` for an ideal directory.
    """
    report = sanitize_events(events, directory_entries=directory_entries)
    return _violations(case_name, sched, [(v.code, v.message)
                                          for v in report.violations])


def diff_schedule(
    case: DirectoryCase,
    sched: Schedule,
    events: Sequence[TraceEvent],
    entries: Sequence[Optional[int]],
    memory_lead: float,
) -> List[Violation]:
    """Replay one schedule through the golden model; compare timelines."""
    golden = build_golden(case)
    found: List[Tuple[str, str]] = []
    for i, (step, event, entry) in enumerate(
            zip(sched.steps, events, entries)):
        if isinstance(step, FenceStep):
            expected = golden.fence(event.issue_time)
            if not times_close(event.release_time, expected.release):
                found.append((
                    "VER007",
                    f"step {i} pfence released at {event.release_time:g}, "
                    f"golden model requires {expected.release:g}"))
            continue
        try:
            expected = golden.admit_pei(
                event.block, step.is_writer, event.issue_time,
                occupancy_of(step, memory_lead))
        except GoldenError as exc:
            found.append(("VER008",
                          f"step {i}: golden model bookkeeping failed: {exc}"))
            break
        if not case.ideal and expected.entry != entry:
            found.append((
                "VER007",
                f"step {i} block {event.block} entered entry {entry}, "
                f"golden fold says {expected.entry}"))
        if not times_close(event.grant_time, expected.grant):
            found.append((
                "VER007",
                f"step {i} ({step.describe()}) granted at "
                f"{event.grant_time:g}, golden model admits "
                f"{expected.grant:g}"
                + (" (after blocking)" if expected.blocked else "")))
    return _violations(case.name, sched, found)


def judge(
    case: DirectoryCase,
    sched: Schedule,
    events: Sequence[TraceEvent],
    entries: Sequence[Optional[int]],
    memory_lead: float,
) -> List[Violation]:
    """Every verdict on one replay: simsan, then the golden differential."""
    found = sanitize(events, None if case.ideal else case.entries,
                     case.name, sched)
    found.extend(diff_schedule(case, sched, events, entries, memory_lead))
    return found


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


@dataclass
class ExploreReport:
    """Outcome of one exhaustive sweep."""

    schedules: int = 0
    replays: int = 0
    violations: List[Violation] = field(default_factory=list)
    by_code: Dict[str, int] = field(default_factory=dict)

    #: Keep at most this many violation records (counts stay exact).
    max_kept: int = 50

    @property
    def ok(self) -> bool:
        return not self.by_code

    def record(self, violations: List[Violation]) -> None:
        for violation in violations:
            self.by_code[violation.code] = self.by_code.get(violation.code, 0) + 1
            if len(self.violations) < self.max_kept:
                self.violations.append(violation)

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        counts = " ".join(f"{c}={n}" for c, n in sorted(self.by_code.items()))
        tail = f" ({counts})" if counts else ""
        return (f"{verdict}: {self.schedules} schedules, "
                f"{self.replays} replays{tail}")


def explore(bounds: ExploreBounds, fail_fast: bool = False) -> ExploreReport:
    """Replay every schedule at the bound under every directory geometry
    and :func:`judge` each timeline."""
    report = ExploreReport()
    cases = default_directory_cases()
    for sched in enumerate_schedules(bounds):
        report.schedules += 1
        for case in cases:
            events, entries = replay(case, sched, bounds.memory_lead)
            report.replays += 1
            found = judge(case, sched, events, entries, bounds.memory_lead)
            if found:
                report.record(found)
                if fail_fast:
                    return report
    return report
