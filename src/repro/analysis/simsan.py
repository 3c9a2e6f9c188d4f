"""``simsan``: post-hoc sanitizer for the Section 4.3 PEI protocol.

LazyPIM (Boroumand et al.) and the bulk-bitwise consistency line of work
show that PIM coherence/atomicity protocols are exactly where subtle bugs
hide.  ``simsan`` consumes the event stream of a
:class:`~repro.core.tracer.PeiTracer` (PEI records interleaved with pfence
records, in directory-acquire order) and re-derives the protocol invariants
the :class:`~repro.core.pim_directory.PimDirectory`, the PMU, and the
operand buffers are supposed to enforce:

========  ==============================================================
code      invariant (paper section)
========  ==============================================================
SAN001    writer-writer exclusion per block (4.3: single writer)
SAN002    readers never overlap a writer of the same block (4.3)
SAN003    back-invalidation (writer) / back-writeback (reader) issued
          before every memory-side PEI touches DRAM (4.3, Fig. 5 step 3)
SAN004    per-PEI timestamp monotonicity:
          issue <= decision <= grant <= completion (timing model)
SAN005    pfence horizon: a pfence returns no earlier than the
          completion of every previously issued writer PEI (3.2)
SAN006    host-side operand-buffer occupancy never exceeds its entry
          count (4.2, Section 6.1's in-flight budget)
SAN007    trace integrity: no dropped events (a truncated trace makes
          the other checks unsound)
SAN008    every traced mnemonic decodes in the ISA registry (Table 1)
SAN009    entry-level exclusion in the tag-less directory: two PEIs
          whose (different) blocks XOR-fold onto one entry must still
          serialize like a conflict (4.3, Section 6.1's 2048 entries)
SAN010    per-entry reader concurrency never exceeds what the 10-bit
          reader counter can represent (Section 6.1)
========  ==============================================================

SAN009/SAN010 need the directory geometry and activate only when the
caller passes ``directory_entries`` (they are meaningless for an ideal
per-block directory).  :mod:`repro.verify` judges its exhaustive small
timelines with these same checks; here they monitor real runs.

Because the executor is synchronous, trace order equals directory-acquire
order, so the single-pass checks below mirror the timestamp semantics of
the directory exactly; every violation reports the offending slice of PEI
trace records.
"""

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.isa import PIM_OPS, PimOp
from repro.core.pim_directory import READER_COUNTER_BITS
from repro.core.tracer import FenceTrace, PeiTrace, PeiTracer
from repro.util.bitops import ilog2, is_power_of_two, xor_fold

__all__ = [
    "SanViolation",
    "SanitizerReport",
    "sanitize_events",
    "sanitize_tracer",
    "CHECKS",
]

#: Check codes and one-line summaries (rendered by the CLI and the docs).
CHECKS: Dict[str, str] = {
    "SAN001": "writer-writer exclusion per block",
    "SAN002": "reader/writer ordering per block",
    "SAN003": "back-invalidation/back-writeback before memory-side PEIs",
    "SAN004": "per-PEI timestamp monotonicity (issue <= decision <= grant <= completion)",
    "SAN005": "pfence horizon covers all previously issued writer PEIs",
    "SAN006": "host-side operand-buffer capacity never exceeded",
    "SAN007": "trace integrity (no dropped events)",
    "SAN008": "traced mnemonics decode in the ISA registry",
    "SAN009": "entry-level exclusion for blocks aliased onto one directory entry",
    "SAN010": "per-entry reader concurrency fits the hardware reader counter",
}

Event = Union[PeiTrace, FenceTrace]


@dataclass(frozen=True)
class SanViolation:
    """One protocol violation, with the trace slice that exhibits it."""

    code: str
    message: str
    events: Tuple[Event, ...] = ()

    def __str__(self) -> str:
        head = f"{self.code} {self.message}"
        if not self.events:
            return head
        slice_lines = "\n".join(f"    {event!r}" for event in self.events)
        return f"{head}\n  offending trace slice:\n{slice_lines}"


@dataclass
class SanitizerReport:
    """Outcome of one sanitizer pass."""

    violations: List[SanViolation] = field(default_factory=list)
    peis_checked: int = 0
    fences_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self) -> str:
        summary = (f"simsan: {self.peis_checked} PEI(s), "
                   f"{self.fences_checked} pfence(s) checked")
        if self.ok:
            return f"{summary}: clean"
        body = "\n".join(str(v) for v in self.violations)
        return f"{summary}: {len(self.violations)} violation(s)\n{body}"


# ----------------------------------------------------------------------
# Per-block and per-core incremental state
# ----------------------------------------------------------------------


@dataclass
class _BlockState:
    """Directory-mirroring timestamps for one *real* block address."""

    last_writer: Optional[PeiTrace] = None    # writer with max completion
    max_reader: Optional[PeiTrace] = None     # reader with max completion

    @property
    def writer_free(self) -> float:
        return self.last_writer.completion if self.last_writer else float("-inf")

    @property
    def readers_max(self) -> float:
        return self.max_reader.completion if self.max_reader else float("-inf")


@dataclass
class _EntryState:
    """Directory-mirroring timestamps for one tag-less directory *entry*.

    Unlike :class:`_BlockState` this aggregates every block folding onto the
    entry; the hardware cannot tell them apart, so neither may the timing.
    """

    last_writer: Optional[PeiTrace] = None
    max_reader: Optional[PeiTrace] = None


class _ReaderWidthState:
    """Counts genuinely overlapping readers of one entry (SAN010)."""

    def __init__(self, max_readers: int):
        self.max_readers = max_readers
        self._completions: List[float] = []
        self._holders: List[Tuple[float, PeiTrace]] = []

    def admit(self, trace: PeiTrace) -> Optional[List[PeiTrace]]:
        """Admit one reader; return the over-width slice on violation."""
        while self._completions and self._completions[0] <= trace.grant_time:
            retired = heapq.heappop(self._completions)
            for i, (held, _) in enumerate(self._holders):
                if held == retired:
                    del self._holders[i]
                    break
        heapq.heappush(self._completions, trace.completion)
        self._holders.append((trace.completion, trace))
        if len(self._completions) > self.max_readers:
            return [t for _, t in self._holders]
        return None


class _HostBufferState:
    """Replays one host PCU's operand-buffer occupancy from the trace."""

    def __init__(self, entries: int):
        self.entries = entries
        self._releases: List[float] = []
        self._holders: List[Tuple[float, PeiTrace]] = []

    def admit(self, trace: PeiTrace, release: float) -> Optional[List[PeiTrace]]:
        """Admit one PEI; return the over-capacity slice on violation.

        Entries whose PEI has completed by this PEI's (post-stall) issue
        time are reusable, mirroring ``OperandBuffer.allocate``.
        """
        while self._releases and self._releases[0] <= trace.issue_time:
            freed = heapq.heappop(self._releases)
            for i, (r, _) in enumerate(self._holders):
                if r == freed:
                    del self._holders[i]
                    break
        heapq.heappush(self._releases, release)
        self._holders.append((release, trace))
        if len(self._releases) > self.entries:
            return [t for _, t in self._holders]
        return None


# ----------------------------------------------------------------------
# The sanitizer
# ----------------------------------------------------------------------


def _op_for(trace: PeiTrace) -> Optional[PimOp]:
    return PIM_OPS.get(trace.op)


def _host_release_time(trace: PeiTrace, op: PimOp) -> float:
    """When the PEI's *host-side* operand-buffer entry frees.

    Mirrors repro.core.executor: host-side and output-producing PEIs hold
    their entry until completion; offloaded no-output PEIs free it at
    dispatch (the vault PCU tracks them from then on).
    """
    if trace.on_host or op.output_bytes > 0:
        return trace.completion
    return trace.grant_time


def sanitize_events(
    events: Sequence[Event],
    operand_buffer_entries: Optional[int] = None,
    dropped: int = 0,
    directory_entries: Optional[int] = None,
    reader_counter_bits: int = READER_COUNTER_BITS,
) -> SanitizerReport:
    """Check a PEI/pfence event stream against the Section 4.3 protocol.

    ``events`` must be in record order (the order ``PeiTracer`` collected
    them, which equals directory-acquire order).  ``operand_buffer_entries``
    enables the SAN006 capacity replay; pass the machine's
    ``pcu_operand_buffer_entries``.  ``dropped`` is the tracer's dropped-
    event count (SAN007).  ``directory_entries`` (the non-ideal directory's
    entry count) enables the entry-granular SAN009/SAN010 checks;
    ``reader_counter_bits`` overrides the Section 6.1 reader-counter width
    for them (the tests use tiny widths to exercise the check cheaply).
    """
    report = SanitizerReport()
    blocks: Dict[int, _BlockState] = {}
    buffers: Dict[int, _HostBufferState] = {}
    writer_horizon: Optional[PeiTrace] = None  # globally latest writer
    index_bits: Optional[int] = None
    entry_states: Dict[int, _EntryState] = {}
    reader_widths: Dict[int, _ReaderWidthState] = {}
    if directory_entries is not None:
        if not is_power_of_two(directory_entries):
            raise ValueError(
                f"directory_entries must be a power of two, got "
                f"{directory_entries}")
        index_bits = ilog2(directory_entries)
    max_readers = (1 << reader_counter_bits) - 1

    if dropped:
        report.violations.append(SanViolation(
            code="SAN007",
            message=(f"tracer dropped {dropped} event(s) — raise the tracer "
                     f"capacity; protocol checks on a truncated trace are "
                     f"unsound"),
        ))

    for event in events:
        if isinstance(event, FenceTrace):
            report.fences_checked += 1
            _check_fence(event, writer_horizon, report)
            continue
        trace = event
        report.peis_checked += 1
        op = _op_for(trace)
        if op is None:
            report.violations.append(SanViolation(
                code="SAN008",
                message=(f"mnemonic `{trace.op}` does not decode in "
                         f"repro.core.isa.PIM_OPS"),
                events=(trace,),
            ))
            continue
        _check_monotonic(trace, report)
        _check_coherence(trace, op, report)
        _check_exclusion(trace, op, blocks, report)
        if index_bits is not None:
            entry = xor_fold(trace.block, index_bits)
            state = entry_states.get(entry)
            if state is None:
                state = entry_states[entry] = _EntryState()
            _check_entry_exclusion(trace, op, entry, state, report)
            if not op.is_writer:
                width = reader_widths.get(entry)
                if width is None:
                    width = reader_widths[entry] = _ReaderWidthState(max_readers)
                over = width.admit(trace)
                if over is not None:
                    report.violations.append(SanViolation(
                        code="SAN010",
                        message=(f"entry {entry}: {len(over)} readers in "
                                 f"flight at once — the {reader_counter_bits}"
                                 f"-bit reader counter holds at most "
                                 f"{max_readers}"),
                        events=tuple(over),
                    ))
        if op.is_writer and (writer_horizon is None
                             or trace.completion > writer_horizon.completion):
            writer_horizon = trace
        if operand_buffer_entries is not None:
            state = buffers.get(trace.core)
            if state is None:
                state = buffers[trace.core] = _HostBufferState(operand_buffer_entries)
            over = state.admit(trace, _host_release_time(trace, op))
            if over is not None:
                report.violations.append(SanViolation(
                    code="SAN006",
                    message=(f"core {trace.core}: {len(over)} PEIs hold "
                             f"host operand-buffer entries simultaneously "
                             f"(capacity {operand_buffer_entries})"),
                    events=tuple(over),
                ))
    return report


def sanitize_tracer(
    tracer: PeiTracer,
    operand_buffer_entries: Optional[int] = None,
    directory_entries: Optional[int] = None,
    reader_counter_bits: int = READER_COUNTER_BITS,
) -> SanitizerReport:
    """Sanitize everything a :class:`PeiTracer` collected."""
    return sanitize_events(
        tracer.events,
        operand_buffer_entries=operand_buffer_entries,
        dropped=tracer.dropped,
        directory_entries=directory_entries,
        reader_counter_bits=reader_counter_bits,
    )


# ----------------------------------------------------------------------
# Individual checks
# ----------------------------------------------------------------------


def _check_monotonic(trace: PeiTrace, report: SanitizerReport) -> None:
    decision = trace.decision_time
    if (trace.issue_time <= trace.grant_time <= trace.completion
            and (decision is None
                 or trace.issue_time <= decision <= trace.grant_time)):
        return
    stamps = [("issue_time", trace.issue_time)]
    if trace.decision_time is not None:
        stamps.append(("decision_time", trace.decision_time))
    stamps.append(("grant_time", trace.grant_time))
    stamps.append(("completion", trace.completion))
    for (prev_name, prev), (name, value) in zip(stamps, stamps[1:]):
        if value < prev:
            report.violations.append(SanViolation(
                code="SAN004",
                message=(f"non-monotonic timestamps: {name} ({value:g}) "
                         f"precedes {prev_name} ({prev:g})"),
                events=(trace,),
            ))
            return


def _check_coherence(trace: PeiTrace, op: PimOp, report: SanitizerReport) -> None:
    if trace.on_host:
        if trace.clean_time is not None:
            report.violations.append(SanViolation(
                code="SAN003",
                message=("host-side PEI carries a back-invalidation record — "
                         "host execution must go through the core's L1, not "
                         "flush it"),
                events=(trace,),
            ))
        return
    if trace.clean_time is None:
        report.violations.append(SanViolation(
            code="SAN003",
            message=("memory-side PEI executed without back-invalidation/"
                     "back-writeback of the target block"),
            events=(trace,),
        ))
        return
    if trace.clean_invalidate is not None and trace.clean_invalidate != op.is_writer:
        wanted = "back-invalidation" if op.is_writer else "back-writeback"
        report.violations.append(SanViolation(
            code="SAN003",
            message=(f"memory-side {'writer' if op.is_writer else 'reader'} "
                     f"PEI used the wrong coherence action (needs {wanted})"),
            events=(trace,),
        ))
    elif not (trace.grant_time <= trace.clean_time <= trace.completion):
        report.violations.append(SanViolation(
            code="SAN003",
            message=(f"back-invalidation at {trace.clean_time:g} falls "
                     f"outside the PEI's [grant, completion] window"),
            events=(trace,),
        ))


def _check_exclusion(
    trace: PeiTrace,
    op: PimOp,
    blocks: Dict[int, _BlockState],
    report: SanitizerReport,
) -> None:
    state = blocks.get(trace.block)
    if state is None:
        state = blocks[trace.block] = _BlockState()
    if op.is_writer:
        if state.last_writer is not None and trace.grant_time < state.writer_free:
            report.violations.append(SanViolation(
                code="SAN001",
                message=(f"two writers of block {trace.block:#x} overlap: "
                         f"grant {trace.grant_time:g} precedes the previous "
                         f"writer's completion {state.writer_free:g}"),
                events=(state.last_writer, trace),
            ))
        if state.max_reader is not None and trace.grant_time < state.readers_max:
            report.violations.append(SanViolation(
                code="SAN002",
                message=(f"writer of block {trace.block:#x} granted at "
                         f"{trace.grant_time:g} while a reader is in flight "
                         f"until {state.readers_max:g}"),
                events=(state.max_reader, trace),
            ))
        if state.last_writer is None or trace.completion > state.writer_free:
            state.last_writer = trace
    else:
        if state.last_writer is not None and trace.grant_time < state.writer_free:
            report.violations.append(SanViolation(
                code="SAN002",
                message=(f"reader of block {trace.block:#x} granted at "
                         f"{trace.grant_time:g} while a writer is in flight "
                         f"until {state.writer_free:g}"),
                events=(state.last_writer, trace),
            ))
        if state.max_reader is None or trace.completion > state.readers_max:
            state.max_reader = trace


def _check_entry_exclusion(
    trace: PeiTrace,
    op: PimOp,
    entry: int,
    state: _EntryState,
    report: SanitizerReport,
) -> None:
    """SAN009: exclusion at *entry* granularity, for aliased blocks.

    Same-block conflicts are already SAN001/SAN002; this only reports pairs
    whose blocks differ but collide in the tag-less table, where the
    hardware must serialize them regardless (a false positive it cannot
    distinguish from a real conflict).
    """
    def clash(holder: Optional[PeiTrace], kind: str) -> None:
        if holder is None or holder.block == trace.block:
            return
        if trace.grant_time < holder.completion:
            report.violations.append(SanViolation(
                code="SAN009",
                message=(f"entry {entry}: {'writer' if op.is_writer else 'reader'} "
                         f"of block {trace.block:#x} granted at "
                         f"{trace.grant_time:g} while a {kind} of aliased "
                         f"block {holder.block:#x} is in flight until "
                         f"{holder.completion:g}"),
                events=(holder, trace),
            ))

    clash(state.last_writer, "writer")
    if op.is_writer:
        clash(state.max_reader, "reader")
        if (state.last_writer is None
                or trace.completion > state.last_writer.completion):
            state.last_writer = trace
    else:
        if (state.max_reader is None
                or trace.completion > state.max_reader.completion):
            state.max_reader = trace


def _check_fence(
    fence: FenceTrace,
    writer_horizon: Optional[PeiTrace],
    report: SanitizerReport,
) -> None:
    if fence.release_time < fence.issue_time:
        report.violations.append(SanViolation(
            code="SAN004",
            message=(f"pfence releases at {fence.release_time:g}, before its "
                     f"own issue at {fence.issue_time:g}"),
            events=(fence,),
        ))
        return
    if writer_horizon is not None and fence.release_time < writer_horizon.completion:
        report.violations.append(SanViolation(
            code="SAN005",
            message=(f"pfence released at {fence.release_time:g} while a "
                     f"previously issued writer PEI completes at "
                     f"{writer_horizon.completion:g}"),
            events=(writer_horizon, fence),
        ))
