"""Machine-checked guardrails for the PEI reproduction.

Three checkers:

* :mod:`repro.analysis.simlint` — an AST-based, per-module static-analysis
  pass enforcing simulator discipline (wall-clock hygiene, timestamp
  hygiene, unit discipline, ISA and stats-key registry completeness)
  across ``src/repro``;
* :mod:`repro.analysis.flow` — *simflow*, the whole-program analyzer:
  per-function CFGs, a project-wide call graph and seven interprocedural
  pass families over one parse (cache-fingerprint soundness FLW001–003,
  unit/dimension taint FLW004–006, hot-path purity FLW007–009, and the
  :mod:`repro.analysis.race` process-safety families RCE001–009), with
  waivers, a checked-in baseline, SARIF output and a seeded-defect
  mutant gauntlet;
* :mod:`repro.analysis.simsan` — a runtime sanitizer that replays a
  :class:`~repro.core.tracer.PeiTracer` event stream against the paper's
  Section 4.3 atomicity/coherence protocol.

Command line: ``python -m repro.analysis lint|flow|flow-mutants|sanitize``
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
from repro.analysis.simlint import (
    RULES,
    LintViolation,
    format_violations,
    lint_paths,
)
from repro.analysis.simsan import (
    CHECKS,
    SanitizerReport,
    SanViolation,
    sanitize_events,
    sanitize_tracer,
)

__all__ = [
    "RULES",
    "CHECKS",
    "FLOW_CODES",
    "MUTANTS",
    "LintViolation",
    "SanViolation",
    "SanitizerReport",
    "FlowReport",
    "lint_paths",
    "format_violations",
    "run_flow",
    "run_mutants",
    "findings_to_json",
    "findings_to_sarif",
    "sanitize_events",
    "sanitize_tracer",
]
