"""The RCE pass families: static concurrency & process-safety checks for
the parallel frontier, run by :func:`repro.analysis.flow.run_flow`.

The frontier's promise is that ``jobs=N`` changes wall-clock time and
nothing else.  These passes check the structural invariants that promise
rests on.  They read simflow's project model (shared source layer, call
graph, reachability) and point it at the process boundary:

* **RCE003** durable-write discipline (:mod:`~repro.analysis.race.
  durable`): bench/obs artifacts publish atomically via
  :mod:`repro.util.fsio`.
* **RCE005–RCE007** fork/worker hygiene (:mod:`~repro.analysis.race.
  worker`): the call-graph slice reachable from submit targets must not
  mutate module globals, read env vars the ``BenchSettings`` snapshot
  does not pin, or touch the process-global RNG off the seeded
  ``util/rng.py`` path.
* **RCE009** set-order soundness (:mod:`~repro.analysis.race.ordering`):
  durable outputs must not depend on raw set iteration order.

What the pool itself enforces needs no rule: ``ProcessPoolExecutor``
pickles every submitted callable and argument, so an unpicklable payload
fails the ``jobs=2`` tests, and ``execute_batch`` keys envelopes by
submission index, which the parallel-vs-serial bit-identity tests check.

The codes sit in simflow's one catalogue (``FLOW_CODES``), waive with
``# simflow: ignore[RCE00x] -- justification``, and their seeded defects
(:mod:`~repro.analysis.race.mutants`) run in ``flow-mutants``.
"""

from repro.analysis.race.mutants import RACE_MUTANTS
from repro.analysis.race.worker import RaceContext, build_context

__all__ = ["RACE_MUTANTS", "RaceContext", "build_context"]
