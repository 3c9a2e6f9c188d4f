"""Mutation testing: seeded protocol defects that the checkers must kill.

A verification harness that has never caught a bug proves nothing.  This
module injects known protocol defects into the real simulator via
monkeypatching (each mutant is a context manager that swaps one method of
:class:`~repro.core.pim_directory.PimDirectory` or
:class:`~repro.core.pmu.Pmu` and restores it on exit) and demands that the
bounded explorer (simsan plus the golden differential) or the coherence
harness flags every one of them.  A surviving mutant fails ``make verify``
— it means a class of real bug would sail through the checkers undetected.

The catalog covers every rule the protocol comprises: lock-handoff cost,
reader/writer blocking in all four directions, pfence horizons, tag-less
index stability, and both coherence actions.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Tuple

from repro.core.pim_directory import PimDirectory
from repro.core.pmu import Pmu
from repro.util.bitops import xor_fold
from repro.verify.coherence import CoherenceBounds, run_coherence
from repro.verify.explorer import ExploreReport, explore
from repro.verify.schedule import ExploreBounds

__all__ = ["Mutant", "MUTANTS", "MutantOutcome", "MutantReport", "run_mutants"]


@dataclass(frozen=True)
class Mutant:
    """One seeded defect: a patch plus the bug class it represents."""

    name: str
    description: str
    patch: Callable[[], "contextmanager"]
    #: Does this defect only manifest on a full machine (coherence pass)?
    needs_machine: bool = False


@contextmanager
def _swap(cls, attr: str, replacement) -> Iterator[None]:
    original = getattr(cls, attr)
    setattr(cls, attr, replacement)
    try:
        yield
    finally:
        setattr(cls, attr, original)


# ----------------------------------------------------------------------
# Directory mutants
# ----------------------------------------------------------------------


def _entry_of(directory: PimDirectory, block: int) -> int:
    """The entry ``PimDirectory.acquire`` folds ``block`` to."""
    return block if directory.ideal else xor_fold(block, directory._index_bits)


def _mutant_drop_handoff():
    def acquire(self, block, is_writer, time):
        entry = _entry_of(self, block)
        t = time + self.latency
        writer_free = self._writer_free.get(entry, 0.0)
        if is_writer:
            readers_max = self._readers_max.get(entry, 0.0)
            busy_until = writer_free if writer_free > readers_max else readers_max
        else:
            busy_until = writer_free
        # Defect: a contended grant forgets the lock-handoff penalty.
        grant = busy_until if busy_until > t else t
        return entry, grant

    return _swap(PimDirectory, "acquire", acquire)


def _mutant_writer_release_as_reader():
    original = PimDirectory.release

    def release(self, entry, is_writer, completion):
        # Defect: writer completions land in the reader timestamp, so later
        # readers (and pfences) no longer wait for them.
        original(self, entry, False, completion)

    return _swap(PimDirectory, "release", release)


def _mutant_reader_ignores_writer():
    original = PimDirectory.acquire

    def acquire(self, block, is_writer, time):
        if is_writer:
            return original(self, block, is_writer, time)
        # Defect: readers start immediately, even during a writer.
        entry = _entry_of(self, block)
        return entry, time + self.latency

    return _swap(PimDirectory, "acquire", acquire)


def _mutant_writer_ignores_readers():
    def acquire(self, block, is_writer, time):
        entry = _entry_of(self, block)
        t = time + self.latency
        # Defect: writers check only writer_free, never readers_max.
        busy_until = self._writer_free.get(entry, 0.0)
        if busy_until > t:
            grant = busy_until + self.handoff_penalty
        else:
            grant = t
        return entry, grant

    return _swap(PimDirectory, "acquire", acquire)


def _mutant_fence_ignores_writers():
    def fence_time(self, time):
        # Defect: pfence returns after the directory access alone.
        return time + (0.0 if self.ideal else self.latency)

    return _swap(PimDirectory, "fence_time", fence_time)


def _mutant_release_skips_fence_horizon():
    def release(self, entry, is_writer, completion):
        if is_writer:
            if completion > self._writer_free.get(entry, 0.0):
                self._writer_free[entry] = completion
            # Defect: _fence_horizon is never advanced.
        else:
            if completion > self._readers_max.get(entry, 0.0):
                self._readers_max[entry] = completion

    return _swap(PimDirectory, "release", release)


def _mutant_unstable_index():
    original = PimDirectory.acquire
    flip = {"n": 0}

    def acquire(self, block, is_writer, time):
        if self.ideal:
            return original(self, block, is_writer, time)
        # Defect: a tag-less false negative — acquire's fold sends the same
        # block to alternating entries, so conflicting PEIs can miss each
        # other.  Flipping a block's low bit flips the low bit of its fold.
        flip["n"] += 1
        return original(self, block ^ (flip["n"] & 1), is_writer, time)

    return _swap(PimDirectory, "acquire", acquire)


# ----------------------------------------------------------------------
# Coherence mutants (need the full machine)
# ----------------------------------------------------------------------


def _mutant_skip_clean():
    def clean_block_for_memory(self, block, op, time):
        # Defect: memory-side execution starts on possibly stale DRAM data.
        return time

    return _swap(Pmu, "clean_block_for_memory", clean_block_for_memory)


def _mutant_writeback_instead_of_invalidate():
    def clean_block_for_memory(self, block, op, time):
        # Defect: writer PEIs only write back — a stale on-chip copy
        # survives the memory-side update.
        ready, _ = self.hierarchy.flush_block(block, invalidate=False, time=time)
        return ready

    return _swap(Pmu, "clean_block_for_memory", clean_block_for_memory)


#: The seeded-defect catalog (ISSUE acceptance: >= 5, all killed).
MUTANTS: Tuple[Mutant, ...] = (
    Mutant("drop-handoff",
           "contended grants forget the lock-handoff penalty",
           _mutant_drop_handoff),
    Mutant("writer-release-as-reader",
           "writer completions recorded as reader completions",
           _mutant_writer_release_as_reader),
    Mutant("reader-ignores-writer",
           "readers no longer wait for the in-flight writer",
           _mutant_reader_ignores_writer),
    Mutant("writer-ignores-readers",
           "writers no longer wait for in-flight readers",
           _mutant_writer_ignores_readers),
    Mutant("fence-ignores-writers",
           "pfence stops waiting for prior writer PEIs",
           _mutant_fence_ignores_writers),
    Mutant("release-skips-fence-horizon",
           "writer releases stop advancing the pfence horizon",
           _mutant_release_skips_fence_horizon),
    Mutant("unstable-index",
           "one block alternates between two directory entries",
           _mutant_unstable_index),
    Mutant("skip-back-invalidation",
           "memory-side PEIs run without cleaning the on-chip copy",
           _mutant_skip_clean, needs_machine=True),
    Mutant("writeback-instead-of-invalidate",
           "writer PEIs back-writeback instead of back-invalidating",
           _mutant_writeback_instead_of_invalidate, needs_machine=True),
)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


@dataclass
class MutantOutcome:
    """What the checkers saw with one defect injected."""

    mutant: Mutant
    killed: bool
    codes: Tuple[str, ...]

    def describe(self) -> str:
        verdict = "KILLED" if self.killed else "SURVIVED"
        by = f" by {', '.join(self.codes)}" if self.codes else ""
        return f"{verdict:8s} {self.mutant.name}: {self.mutant.description}{by}"


@dataclass
class MutantReport:
    outcomes: List[MutantOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.killed for outcome in self.outcomes)

    def summary(self) -> str:
        killed = sum(outcome.killed for outcome in self.outcomes)
        verdict = "PASS" if self.ok else "FAIL"
        return f"{verdict}: {killed}/{len(self.outcomes)} mutants killed"


def kill_bounds() -> ExploreBounds:
    """A small directory bound that still reaches every defect quickly."""
    return ExploreBounds(max_peis=3, durations=(3.0,), strides=(0.0, 7.0))


def kill_coherence_bounds() -> CoherenceBounds:
    """A small full-machine bound for the coherence mutants."""
    return CoherenceBounds(max_peis=2, strides=(0.0,),
                           primes=("shared-clean", "dirty-owner"))


def _check_mutant(mutant: Mutant) -> MutantOutcome:
    codes: List[str] = []
    with mutant.patch():
        if mutant.needs_machine:
            report: ExploreReport = run_coherence(
                kill_coherence_bounds(), fail_fast=True)
        else:
            report = explore(kill_bounds(), fail_fast=True)
        codes.extend(sorted(report.by_code))
    return MutantOutcome(mutant=mutant, killed=bool(codes),
                         codes=tuple(codes))


def run_mutants() -> MutantReport:
    """Inject every cataloged defect; every one must be killed."""
    report = MutantReport()
    for mutant in MUTANTS:
        report.outcomes.append(_check_mutant(mutant))
    return report
