"""Golden reference model of the PEI protocol, straight from the paper.

The simulator's :class:`repro.core.pim_directory.PimDirectory` realizes the
Section 4.3 protocol with two per-entry *timestamps* (last writer completion,
last reader completion).  This module re-derives the admissible orderings
from the paper's own vocabulary instead — per-entry **readable/writeable
bits** backed by a 10-bit reader counter and a 1-bit writer counter, plus
explicit **cache-copy / memory-freshness state** per block — so the two
encodings can be checked against each other by the explorer's differential
(:func:`repro.verify.explorer.diff_schedule`).  Nothing here imports the
simulator's directory; the only shared code is the entry-width constants
and the ``xor_fold`` index function, both of which are themselves under
test.

Why the encodings must agree exactly: with in-flight PEIs retired the moment
a later PEI arrives, "entry not readable" is precisely "an admitted writer's
completion exceeds the arrival time", and the earliest admissible start of a
blocked PEI is the latest blocking completion plus the lock-handoff cost —
the same max/+ arithmetic, evaluated over the same floats.  Any divergence
beyond round-off is a protocol bug in one of the two encodings.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.pim_directory import MAX_CONCURRENT_READERS

__all__ = [
    "GoldenError",
    "GoldenEntry",
    "GoldenDirectory",
    "GoldenPeiRecord",
    "GoldenFenceRecord",
    "GoldenCacheState",
]


class GoldenError(AssertionError):
    """The golden model's own bookkeeping broke (a checker bug, not a sim bug)."""


@dataclass
class _Admitted:
    """One admitted PEI occupying a directory entry for [grant, completion)."""

    is_writer: bool
    grant: float
    completion: float

    def occupies_at(self, instant: float) -> bool:
        return self.grant <= instant < self.completion


@dataclass
class GoldenEntry:
    """One PIM directory entry as the paper describes it (Section 6.1).

    The entry remembers every admitted PEI's occupancy window
    ``[grant, completion)``; the 10-bit reader / 1-bit writer counters and
    the derived readable/writeable bits are functions of an instant:
    readable while no writer occupies the entry, writeable while nothing
    does.  Hardware-width and exclusion checks run at admit time over the
    whole window, which is exact for the counters (overlap of two windows
    means both PEIs are simultaneously counted at the later grant).
    """

    in_flight: List[_Admitted] = field(default_factory=list)

    def readers_at(self, instant: float) -> int:
        return sum(1 for pei in self.in_flight
                   if not pei.is_writer and pei.occupies_at(instant))

    def writers_at(self, instant: float) -> int:
        return sum(1 for pei in self.in_flight
                   if pei.is_writer and pei.occupies_at(instant))

    def readable_at(self, instant: float) -> bool:
        return self.writers_at(instant) == 0

    def writeable_at(self, instant: float) -> bool:
        return self.writers_at(instant) == 0 and self.readers_at(instant) == 0

    def retire_before(self, arrival: float) -> None:
        """Forget PEIs no future arrival can conflict with.

        Arrivals are monotonic, so a PEI whose completion precedes this
        arrival can never again block anyone or overlap a future window.
        """
        self.in_flight = [pei for pei in self.in_flight
                          if pei.completion > arrival]

    def blockers(self, is_writer: bool, arrival: float) -> List[_Admitted]:
        """The admitted PEIs an arrival at ``arrival`` must wait behind.

        Mirrors the conservative hardware rule: any previously admitted
        writer still completing after the arrival blocks (readers block
        only writers).
        """
        return [pei for pei in self.in_flight
                if pei.completion > arrival
                and (is_writer or pei.is_writer)]

    def admit(self, is_writer: bool, grant: float, completion: float) -> None:
        """Count a granted PEI into the entry, enforcing hardware widths."""
        overlapping = [pei for pei in self.in_flight
                       if pei.grant < completion and grant < pei.completion]
        if is_writer and any(pei.is_writer for pei in overlapping):
            raise GoldenError(
                "1-bit writer counter overflow: two writers occupy the "
                "entry simultaneously")
        if is_writer and overlapping:
            raise GoldenError(
                "writer admitted while the entry holds readers")
        if not is_writer and any(pei.is_writer for pei in overlapping):
            raise GoldenError(
                "reader admitted while the entry is not readable")
        self.in_flight.append(_Admitted(is_writer, grant, completion))
        if not is_writer:
            peak = max(self.readers_at(pei.grant)
                       for pei in self.in_flight if not pei.is_writer)
            if peak > MAX_CONCURRENT_READERS:
                raise GoldenError(
                    f"10-bit reader counter overflow: {peak} concurrent "
                    f"readers")


@dataclass(frozen=True)
class GoldenPeiRecord:
    """The golden verdict for one PEI: where it may run and when."""

    entry: int
    grant: float
    completion: float
    blocked: bool


@dataclass(frozen=True)
class GoldenFenceRecord:
    """The golden verdict for one pfence."""

    release: float


class GoldenDirectory:
    """Counter-encoded reference directory producing admissible timelines.

    ``index_fn`` maps a block number to an entry index; the differential
    harness passes the XOR fold of the geometry under test.  ``latency`` and
    ``handoff_penalty`` mirror the directory parameters so the expected
    grant times are computed in the same units as the simulator's.
    """

    def __init__(
        self,
        index_fn: Callable[[int], int],
        entries: int,
        latency: float,
        handoff_penalty: float,
        ideal: bool = False,
    ):
        self._index_fn = index_fn
        self.entries = entries
        self.latency = 0.0 if ideal else latency
        self.handoff_penalty = handoff_penalty
        self.ideal = ideal
        self._table: Dict[int, GoldenEntry] = {}
        # Completion horizon of every admitted writer — what the paper's
        # pfence waits for ("all directory entries readable" for the writers
        # issued so far).
        self._writer_horizon = 0.0
        self._any_horizon = 0.0

    def _entry(self, index: int) -> GoldenEntry:
        entry = self._table.get(index)
        if entry is None:
            entry = GoldenEntry()
            self._table[index] = entry
        return entry

    def admit_pei(self, block: int, is_writer: bool, issue: float,
                  occupancy: float) -> GoldenPeiRecord:
        """Admit one PEI issued at ``issue`` holding its lock for ``occupancy``.

        Returns the admissible grant time and resulting completion.  The
        grant rule is the paper's: wait until the entry is readable (reader)
        or writeable (writer), then start; a PEI that had to wait inherits
        the lock-handoff cost on top of the blocking completion.
        """
        index = self._index_fn(block)
        if not self.ideal and not 0 <= index < self.entries:
            raise GoldenError(
                f"index function escaped the table: {index} of {self.entries}")
        arrival = issue + self.latency
        entry = self._entry(index)
        entry.retire_before(arrival)
        blockers = entry.blockers(is_writer, arrival)
        if blockers:
            last = max(pei.completion for pei in blockers)
            grant = last + self.handoff_penalty
        else:
            grant = arrival
        completion = grant + occupancy
        entry.admit(is_writer, grant, completion)
        if is_writer and completion > self._writer_horizon:
            self._writer_horizon = completion
        if completion > self._any_horizon:
            self._any_horizon = completion
        return GoldenPeiRecord(entry=index, grant=grant,
                               completion=completion, blocked=bool(blockers))

    def fence(self, issue: float) -> GoldenFenceRecord:
        """pfence semantics: every previously admitted writer has completed."""
        horizon = self._writer_horizon if self._writer_horizon > issue else issue
        return GoldenFenceRecord(release=horizon + self.latency)

    def quiesce(self, issue: float) -> float:
        """When every admitted PEI, readers included, has completed."""
        return self._any_horizon if self._any_horizon > issue else issue


@dataclass
class GoldenCacheState:
    """Per-block cache-copy and memory-freshness state (Section 4.3).

    Tracks the two facts coherence management cares about: does the host
    hierarchy hold *any* copy of the block, and does main memory hold the
    latest data (i.e. no dirty copy on chip).  Host accesses and PMU cleans
    transition this state; :meth:`expect_clean` returns what a correct
    ``clean_block_for_memory`` must do from the current state.
    """

    present: bool = False
    dirty: bool = False

    @property
    def memory_fresh(self) -> bool:
        return not self.dirty

    def host_access(self, is_write: bool) -> None:
        """A host-side touch installs a copy; a write dirties it."""
        self.present = True
        if is_write:
            self.dirty = True

    def expect_clean(self, is_writer: bool) -> "GoldenCleanExpectation":
        """Predict a clean of this block for memory-side execution.

        A writer PEI back-invalidates (no stale copy may survive, since the
        memory-side result supersedes it); a reader PEI back-writebacks
        (copies may stay, but memory must be fresh).  Either way, memory is
        fresh afterwards and dirty data moves off chip iff there was any.
        """
        expectation = GoldenCleanExpectation(
            must_write_back=self.present and self.dirty,
            touches_hierarchy=self.present,
            invalidates=is_writer,
            present_after=self.present and not is_writer,
        )
        if is_writer:
            self.present = False
        self.dirty = False
        return expectation


@dataclass(frozen=True)
class GoldenCleanExpectation:
    """What a correct ``clean_block_for_memory`` does from a given state."""

    #: Dirty data existed on chip, so memory readiness must include a write.
    must_write_back: bool
    #: A copy existed, so the hierarchy must be probed (and stats must tick).
    touches_hierarchy: bool
    #: The clean is a back-invalidation (writer PEI) vs back-writeback.
    invalidates: bool
    #: Whether any on-chip copy legitimately survives the clean.
    present_after: bool

    def expected_stat(self) -> Optional[Tuple[str, str]]:
        """The (counter, untouched-counter) pair this clean must move."""
        if not self.touches_hierarchy:
            return None
        if self.invalidates:
            return ("pmu.back_invalidations", "pmu.back_writebacks")
        return ("pmu.back_writebacks", "pmu.back_invalidations")
