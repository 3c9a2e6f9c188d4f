"""repro.verify: bounded protocol checker for the PEI architecture.

Three cooperating pieces (see ``docs/verification.md``):

* :mod:`repro.verify.golden` — a reference model of the Section 4.3
  protocol written in the paper's own vocabulary (readable/writeable bits,
  10-bit reader / 1-bit writer counters, per-block cache-copy and
  memory-freshness state), deliberately independent of the simulator's
  timestamp encoding.
* :mod:`repro.verify.explorer` — bounded exhaustive exploration: every
  interleaving of small PEI workloads is replayed through the real
  :class:`~repro.core.pim_directory.PimDirectory`, recorded as the
  simulator's ``PeiTrace``/``FenceTrace`` events, and judged by the simsan
  sanitizer (SAN001–SAN005, SAN009) plus a differential replay through the
  golden model (VER007/VER008).
* :mod:`repro.verify.coherence` — the same schedules on a full built
  machine, checking the PMU's back-invalidation/back-writeback against the
  golden cache state (VER009–VER014) and judging the events with simsan.

:mod:`repro.verify.mutants` seeds known protocol defects into the simulator
— each a one-line edit of its own source, in simflow's mutant record — and
requires the above to kill every one: the harness validates itself.

Run ``python -m repro.verify all`` (or ``make verify``) for the whole
sweep; ``explore``, ``coherence`` and ``mutants`` run the pieces
individually.
"""

from repro.verify.coherence import CoherenceBounds, run_coherence
from repro.verify.explorer import (
    ExploreReport,
    Violation,
    diff_schedule,
    explore,
    judge,
    replay,
)
from repro.verify.golden import GoldenCacheState, GoldenDirectory, GoldenError
from repro.verify.mutants import (
    DIRECTORY_MUTANTS,
    MACHINE_MUTANTS,
    run_mutants,
)
from repro.verify.schedule import (
    DirectoryCase,
    ExploreBounds,
    Schedule,
    count_schedules,
    default_directory_cases,
    enumerate_schedules,
)

__all__ = [
    "CoherenceBounds",
    "DIRECTORY_MUTANTS",
    "DirectoryCase",
    "ExploreBounds",
    "ExploreReport",
    "GoldenCacheState",
    "GoldenDirectory",
    "GoldenError",
    "MACHINE_MUTANTS",
    "Schedule",
    "Violation",
    "count_schedules",
    "default_directory_cases",
    "diff_schedule",
    "enumerate_schedules",
    "explore",
    "judge",
    "replay",
    "run_coherence",
    "run_mutants",
]
