"""Machine-checked guardrails for the PEI reproduction.

Two checkers:

* :mod:`repro.analysis.flow` — *simflow*, the one static analyzer: one
  parse of the tree, per-function CFGs and a project-wide call graph, and
  eight pass families over them — per-module simulator discipline
  SIM001/SIM003–007 (wall-clock hygiene, timestamp hygiene, defaults,
  unit discipline, ISA and stats-key registry completeness),
  cache-fingerprint soundness FLW001–003, unit/dimension taint
  FLW004–006, hot-path purity FLW007–009, and the
  :mod:`repro.analysis.race` process-safety families RCE001–009 — with
  waivers, a checked-in baseline, SARIF output and a seeded-defect
  mutant gauntlet;
* :mod:`repro.analysis.simsan` — a runtime sanitizer that replays a
  :class:`~repro.core.tracer.PeiTracer` event stream against the paper's
  Section 4.3 atomicity/coherence protocol.

Command line: ``python -m repro.analysis flow|flow-mutants|sanitize|...``
(see ``docs/analysis.md``).
"""

from repro.analysis.flow import (
    FLOW_CODES,
    MUTANTS,
    FlowReport,
    findings_to_json,
    findings_to_sarif,
    run_flow,
    run_mutants,
)
from repro.analysis.simsan import (
    CHECKS,
    SanitizerReport,
    SanViolation,
    sanitize_events,
    sanitize_tracer,
)

__all__ = [
    "CHECKS",
    "FLOW_CODES",
    "MUTANTS",
    "SanViolation",
    "SanitizerReport",
    "FlowReport",
    "run_flow",
    "run_mutants",
    "findings_to_json",
    "findings_to_sarif",
    "sanitize_events",
    "sanitize_tracer",
]
