"""The RCE pass families: static concurrency & process-safety checks for
the parallel frontier, run by :func:`repro.analysis.flow.run_flow`.

The frontier's promise is that ``jobs=N`` changes wall-clock time and
nothing else.  These passes check the structural invariants that promise
rests on.  They read simflow's project model (shared source layer, call
graph, reachability) and point it at the process boundary:

* **RCE001–RCE002** payload safety (:mod:`~repro.analysis.race.payload`):
  everything a ``pool.submit`` captures must be frozen picklable data —
  no closures, bound methods, callbacks, open handles, locks, or
  instances of classes that hold them (traced transitively through the
  model's attribute types).
* **RCE003–RCE004** durable-write discipline (:mod:`~repro.analysis.race.
  durable`): bench/obs artifacts publish atomically via
  :mod:`repro.util.fsio`; shared JSONL streams append via
  ``append_jsonl`` (single O_APPEND write), never buffered ``open("a")``.
* **RCE005–RCE007** fork/worker hygiene (:mod:`~repro.analysis.race.
  worker`): the call-graph slice reachable from submit targets must not
  mutate module globals, read env vars the ``BenchSettings`` snapshot
  does not pin, or touch the process-global RNG off the seeded
  ``util/rng.py`` path.
* **RCE008–RCE009** ordering soundness (:mod:`~repro.analysis.race.
  ordering`): outputs must not depend on future-completion order or raw
  set iteration order.

The codes sit in simflow's one catalogue (``FLOW_CODES``), waive with
``# simflow: ignore[RCE00x] -- justification``, baseline into
``flow-baseline.json``, and their seeded defects
(:mod:`~repro.analysis.race.mutants`) run in ``flow-mutants``.
"""

from repro.analysis.race.mutants import RACE_MUTANTS
from repro.analysis.race.worker import RaceContext, build_context

__all__ = ["RACE_MUTANTS", "RaceContext", "build_context"]
