"""simflow orchestration: parse -> model -> passes -> waivers.

One parse of the tree feeds every rule — the per-module SIM rules, the
interprocedural FLW rules and the process-safety RCE rules — and one layer
sits on top of the passes: **waivers**, ``# simflow: ignore[SIM00x,
FLW00x, RCE00x] -- justification`` pragmas matched by statement span
(:mod:`repro.analysis.source`).  A justified waiver is the only way to
accept a finding; it belongs to a finding that is *correct but intended*
(a settings field that shapes the request set).  Unjustified and stale
pragmas report as ``FLW000``, and so does a pragma naming a code that is
in no catalogue (a typo, or a retired rule), whatever ``select`` is.

Every pass family reads the one parsed project.  The SIM lint pass reads
the parse alone; the FLW and RCE families read :class:`ProjectModel`,
which is built only when one of them runs, and derived structures (the
hot set, the RCE families' worker-slice context) are built on first use
through :meth:`ProjectModel.derived`, so a ``select`` that skips a family
never pays for what only it needs.
"""

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.source import (HYGIENE_CODE, SYNTAX_CODE, Project,
                                   Violation, apply_waivers, parse_project)
from repro.analysis.flow.fingerprint import run_fingerprint_pass
from repro.analysis.flow.lint import run_lint_pass
from repro.analysis.flow.model import ProjectModel
from repro.analysis.flow.purity import hot_set, run_purity_pass
from repro.analysis.race.durable import run_durable_pass
from repro.analysis.race.ordering import run_ordering_pass
from repro.analysis.race.worker import build_context, run_worker_pass

__all__ = ["FLOW_CODES", "HYGIENE_CODE", "SYNTAX_CODE", "Finding",
           "FlowReport", "run_flow"]

#: Rule catalogue: code -> (title, one-line rationale).
FLOW_CODES: Dict[str, Tuple[str, str]] = {
    "FLW001": ("fingerprint gap",
               "a config/request field is read by a cache-keyed computation "
               "but not covered by its fingerprint"),
    "FLW002": ("dead config field",
               "a config/settings field is never read anywhere in the tree"),
    "FLW003": ("unresolved settings field",
               "a BenchSettings field is read by bench code but never "
               "pinned in RunRequest.resolve()"),
    "FLW007": ("hot-path nondeterminism",
               "set iteration, id()-keyed lookups or env reads in or "
               "reachable from the replay loops"),
    "FLW008": ("hot-path allocation",
               "per-op list/dict/set allocation in or reachable from the "
               "replay loops"),
    "RCE003": ("non-atomic durable write",
               "a bench/obs artifact is written with open('w')/"
               ".write_text instead of an atomic temp-file+replace "
               "publish"),
    "RCE005": ("worker-slice global mutation",
               "worker-side code mutates module-global state that fork "
               "privatizes and spawn resets"),
    "RCE006": ("unpinned worker env read",
               "worker-side code reads an env var the BenchSettings "
               "snapshot does not pin, so the resolved request no longer "
               "describes the run"),
    "RCE007": ("global RNG off the seeded path",
               "random.*/np.random.* global-state calls outside "
               "util/rng.py diverge across workers and break bit-replay"),
    "RCE009": ("set-order dependent output",
               "set iteration feeds an order-sensitive durable output "
               "without sorted(...)"),
    "SIM001": ("wall-clock time source",
               "a call to, bound reference of or from-import of a host "
               "clock (time.perf_counter, datetime.now, ...) breaks "
               "bit-for-bit replay of simulated time"),
    "SIM004": ("mutable or type-lying default",
               "a mutable default is shared across calls; a None default "
               "under a non-Optional annotation lies to every reader"),
    "SIM005": ("raw physical-unit literal",
               "ns/GHz quantities belong in the parameter tables "
               "(SystemConfig, ClockDomain, repro.energy.params), converted "
               "through ClockDomain"),
}

#: The codes of the lint pass, which reads the parse alone.
_LINT_CODES = ("SIM001", "SIM004", "SIM005")

#: Which model pass implements which codes (drives --select pass skipping).
_MODEL_PASSES = (
    (run_fingerprint_pass, ("FLW001", "FLW002", "FLW003")),
    (run_purity_pass, ("FLW007", "FLW008")),
    (run_durable_pass, ("RCE003",)),
    (run_worker_pass, ("RCE005", "RCE006", "RCE007")),
    (run_ordering_pass, ("RCE009",)),
)


@dataclass(frozen=True)
class Finding:
    """One surviving analyzer finding, carrying both absolute and rel paths."""

    code: str
    message: str
    path: str
    rel: str
    line: int
    col: int = 0

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def key(self) -> Tuple[str, str, str]:
        """The line-independent identity the mutation kill rule compares."""
        return (self.code, self.rel, self.message)


@dataclass
class FlowReport:
    """The outcome of one simflow run."""

    findings: List[Finding] = field(default_factory=list)
    modules: int = 0
    #: Model sizes (None when only the lint pass ran: no model was built).
    functions: Optional[int] = None
    hot_functions: Optional[int] = None
    #: Size of the RCE families' worker slice (None when no RCE code ran).
    worker_functions: Optional[int] = None
    select: Optional[Tuple[str, ...]] = None

    @property
    def clean(self) -> bool:
        return not self.findings


def _unknown_waiver_codes(project: Project) -> Iterator[Violation]:
    """FLW000 for each pragma that names a code no rule has.

    Such a pragma suppresses nothing and never reads as stale (no run
    checks its code), so it would otherwise sit in the tree unseen.
    """
    for module in project.modules:
        for waiver in module.waivers:
            unknown = [code for code in waiver.codes if code not in FLOW_CODES]
            if unknown:
                yield Violation(
                    code=HYGIENE_CODE,
                    message=(f"waiver names no rule: {', '.join(unknown)} — "
                             f"fix the code or delete the pragma"),
                    path=str(module.path), line=waiver.pragma_line)


def run_flow(
    paths: Sequence,
    select: Optional[Iterable[str]] = None,
    overrides: Optional[Dict[str, str]] = None,
    parsed: Optional[Project] = None,
) -> FlowReport:
    """Run the flow passes over every Python file under ``paths``.

    ``select`` restricts to the given rule codes (a pass whose codes are
    all deselected is skipped entirely).  ``overrides`` substitutes
    in-memory source text by rel-path suffix — the seeded-defect mutants
    run through this without touching the tree.  ``parsed`` is an earlier
    parse of ``paths`` whose modules are reused for every file
    ``overrides`` leaves alone.
    """
    project, syntax_errors = parse_project([Path(p) for p in paths],
                                           overrides=overrides, parsed=parsed)
    selected = (set(code.upper() for code in select)
                if select is not None else set(FLOW_CODES))
    raw: List[Violation] = list(syntax_errors)
    if selected.intersection(_LINT_CODES):
        raw.extend(v for v in run_lint_pass(project) if v.code in selected)
    passes = [pass_fn for pass_fn, codes in _MODEL_PASSES
              if selected.intersection(codes)]
    model: Optional[ProjectModel] = None
    if passes:
        model = ProjectModel(project)
        for pass_fn in passes:
            raw.extend(v for v in pass_fn(model) if v.code in selected)

    survivors = apply_waivers(project, raw, selected)
    survivors.extend(_unknown_waiver_codes(project))

    rel_of = {str(m.path): m.rel for m in project.modules}
    findings = [Finding(code=v.code, message=v.message, path=v.path,
                        rel=rel_of.get(v.path, Path(v.path).name),
                        line=v.line, col=v.col)
                for v in survivors]

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    rce_selected = any(code.startswith("RCE") for code in selected)
    return FlowReport(
        findings=findings,
        modules=len(project.modules),
        functions=len(model.functions) if model else None,
        hot_functions=len(model.derived(hot_set)) if model else None,
        worker_functions=(len(model.derived(build_context).worker_slice)
                          if model and rce_selected else None),
        select=tuple(sorted(selected)) if select is not None else None,
    )
