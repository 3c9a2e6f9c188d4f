"""``simflow``: the static analyzer of the simulator tree.

``simflow`` parses the tree once and builds a project model — per-function
CFGs (:mod:`~repro.analysis.flow.cfg`), a project-wide call graph with
reachability (:mod:`~repro.analysis.flow.model`) — then runs eight pass
families over that one parse and one model:

* **SIM001, SIM003–SIM007** simulator discipline (:mod:`~repro.analysis.
  flow.lint`): per-module checks for wall-clock reads, float equality on
  timestamps, mutable or type-lying defaults, raw physical-unit literals,
  and the completeness of the ISA and stats-key registries.
* **FLW001–FLW003** fingerprint soundness (:mod:`~repro.analysis.flow.
  fingerprint`): every config/settings field the simulation reads must be
  covered by the cache fingerprints, no field may be dead, and every
  settings field must be pinned by ``RunRequest.resolve``.
* **FLW004–FLW006** unit/dimension taint (:mod:`~repro.analysis.flow.
  units`): ns/GHz/cycles/bytes quantities tracked flow-sensitively through
  each function's CFG; cross-dimension arithmetic, comparisons, and
  mis-suffixed assignments are reported.
* **FLW007–FLW009** hot-path purity (:mod:`~repro.analysis.flow.purity`):
  call-graph reachability from the replay loops; nondeterminism sources,
  per-op allocation sinks and ``stats.add`` calls on that set and inside
  the loops themselves.
* **RCE001–RCE009** process safety on the parallel frontier
  (:mod:`repro.analysis.race`): payload picklability, durable-write
  discipline, fork/worker hygiene on the worker slice, and ordering
  soundness.

A finding is accepted only by a justified inline waiver, ``# simflow:
ignore[CODE] -- reason``.  Entry points:
:func:`~repro.analysis.flow.engine.run_flow` (programmatic), ``python -m
repro.analysis flow`` (CLI, JSON + SARIF), and ``python -m repro.analysis
flow-mutants`` (seeded-defect self-validation).
"""

from repro.analysis.flow.engine import (
    FLOW_CODES,
    HYGIENE_CODE,
    FlowReport,
    run_flow,
)
from repro.analysis.flow.model import ProjectModel
from repro.analysis.flow.mutants import MUTANTS, run_mutants
from repro.analysis.flow.report import findings_to_json, findings_to_sarif, format_report

__all__ = [
    "FLOW_CODES",
    "HYGIENE_CODE",
    "FlowReport",
    "MUTANTS",
    "ProjectModel",
    "findings_to_json",
    "findings_to_sarif",
    "format_report",
    "run_flow",
    "run_mutants",
]
