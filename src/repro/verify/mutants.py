"""Mutation testing: seeded protocol defects that the checkers must kill.

A verification harness that has never caught a bug proves nothing.  Each
mutant here is a one-line edit of the simulator's own source —
``core/pim_directory.py`` or ``core/pmu.py`` — in simflow's
:class:`~repro.analysis.mutation.Mutant` record.
:func:`~repro.analysis.mutation.seeded` swaps the method the edit changes
into the live class for one sweep, so a mutant can only break code the
simulator runs, and a drifted anchor fails before any sweep.  The bounded
explorer (simsan plus the golden differential) judges the directory
mutants; the coherence pass judges the machine mutants.  A mutant is
killed when the sweep reports the mutant's own code; a surviving mutant
fails ``make verify`` — it means a class of real bug would sail through
the checkers undetected.

The catalogue covers every rule the protocol comprises: lock-handoff cost,
reader/writer blocking in all four directions, pfence horizons, tag-less
index stability, and both coherence actions.
"""

from typing import Callable, List, Tuple

from repro.analysis.mutation import Mutant, MutantResult, seeded
from repro.verify.coherence import CoherenceBounds, run_coherence
from repro.verify.explorer import ExploreReport, explore
from repro.verify.schedule import ExploreBounds

__all__ = ["DIRECTORY_MUTANTS", "GAUNTLET", "MACHINE_MUTANTS",
           "check_mutant", "run_mutants"]

_DIRECTORY = "core/pim_directory.py"
_PMU = "core/pmu.py"

#: Defects in the PIM directory's reader-writer locks and pfence horizon.
DIRECTORY_MUTANTS: Tuple[Mutant, ...] = (
    Mutant("drop-handoff", "VER007",
           "contended grants forget the lock-handoff penalty",
           ((_DIRECTORY, "grant = busy_until + self.handoff_penalty",
             "grant = busy_until"),)),
    Mutant("writer-release-as-reader", "SAN002",
           "writer completions recorded as reader completions",
           ((_DIRECTORY,
             "        if is_writer:\n"
             "            if completion > self._writer_free.get(entry, 0.0):\n",
             "        if False:\n"
             "            if completion > self._writer_free.get(entry, 0.0):\n"),)),
    Mutant("reader-ignores-writer", "SAN002",
           "readers no longer wait for the in-flight writer",
           ((_DIRECTORY, "busy_until = writer_free\n",
             "busy_until = 0.0\n"),)),
    Mutant("writer-ignores-readers", "SAN002",
           "writers no longer wait for in-flight readers",
           ((_DIRECTORY,
             "busy_until = writer_free if writer_free > readers_max "
             "else readers_max",
             "busy_until = writer_free"),)),
    Mutant("fence-ignores-writers", "SAN005",
           "pfence stops waiting for prior writer PEIs",
           ((_DIRECTORY, "horizon = max(self._fence_horizon, time)",
             "horizon = time"),)),
    Mutant("release-skips-fence-horizon", "SAN005",
           "writer releases stop advancing the pfence horizon",
           ((_DIRECTORY, "self._fence_horizon = completion", "pass"),)),
    Mutant("unstable-index", "VER007",
           "one block alternates between two directory entries",
           ((_DIRECTORY, "value = block\n",
             "value = block ^ (int(self._slots[SLOT_PIM_DIRECTORY_ACCESSES])"
             " & 1)\n"),)),
)

#: Defects in the PMU's coherence clean before memory-side PEIs; they
#: show only on a full machine.
MACHINE_MUTANTS: Tuple[Mutant, ...] = (
    Mutant("skip-back-invalidation", "VER009",
           "memory-side PEIs run without cleaning the on-chip copy",
           ((_PMU, "ready, _ = self.hierarchy.flush_block(block, "
                   "invalidate=op.writes, time=time)",
             "ready = time"),)),
    Mutant("writeback-instead-of-invalidate", "VER010",
           "writer PEIs back-writeback instead of back-invalidating",
           ((_PMU, "invalidate=op.writes", "invalidate=False"),)),
)


def kill_bounds() -> ExploreBounds:
    """A small directory bound that still reaches every defect quickly."""
    return ExploreBounds(max_peis=3, durations=(3.0,), strides=(0.0, 7.0))


def kill_coherence_bounds() -> CoherenceBounds:
    """A small full-machine bound for the coherence mutants."""
    return CoherenceBounds(max_peis=2, strides=(0.0,),
                           primes=("shared-clean", "dirty-owner"))


#: Each catalogue with the sweep that judges it.
GAUNTLET: Tuple[Tuple[Tuple[Mutant, ...], Callable[[], ExploreReport]], ...] = (
    (DIRECTORY_MUTANTS, lambda: explore(kill_bounds(), fail_fast=True)),
    (MACHINE_MUTANTS,
     lambda: run_coherence(kill_coherence_bounds(), fail_fast=True)),
)


def check_mutant(mutant: Mutant,
                 judge: Callable[[], ExploreReport]) -> MutantResult:
    """Seed ``mutant`` for one ``judge`` sweep; killed by its own code."""
    with seeded(mutant):
        codes = sorted(judge().by_code)
    return MutantResult(mutant=mutant, killed=mutant.code in codes,
                        new_findings=codes)


def run_mutants() -> List[MutantResult]:
    """Seed every catalogued defect; every one must be killed."""
    return [check_mutant(mutant, judge)
            for catalogue, judge in GAUNTLET for mutant in catalogue]
