"""``simflow``: the static analyzer of the simulator tree.

``simflow`` parses the tree once and builds a project model — a
project-wide call graph with reachability (:mod:`~repro.analysis.flow.
model`) — then runs six pass families over that one parse and one model:

* **SIM001, SIM004, SIM005** simulator discipline (:mod:`~repro.analysis.
  flow.lint`): per-module checks for wall-clock reads, mutable or
  type-lying defaults, and raw physical-unit literals.
* **FLW001–FLW003** fingerprint soundness (:mod:`~repro.analysis.flow.
  fingerprint`): every config/settings field the simulation reads must be
  covered by the cache fingerprints, no field may be dead, and every
  settings field must be pinned by ``RunRequest.resolve``.
* **FLW007–FLW008** hot-path purity (:mod:`~repro.analysis.flow.purity`):
  call-graph reachability from the replay loops; nondeterminism sources
  and per-op allocation sinks on that set and inside the loops themselves.
* **RCE003, RCE005–RCE007, RCE009** process safety on the parallel
  frontier (:mod:`repro.analysis.race`): durable-write discipline,
  fork/worker hygiene on the worker slice, and set-order soundness.

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
