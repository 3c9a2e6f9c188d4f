"""simflow orchestration: parse -> model -> passes -> waivers -> baseline.

One parse of the tree feeds every rule — the per-module SIM rules, the
interprocedural FLW rules and the process-safety RCE rules — and two
layers sit on top of the passes:

* **waivers** — ``# simflow: ignore[SIM00x, FLW00x, RCE00x] --
  justification`` pragmas, the one waiver namespace, matched by statement
  span (:mod:`repro.analysis.source`).  Unjustified and stale pragmas
  report as ``FLW000``.
* **baseline** — a checked-in JSON file of accepted pre-existing findings,
  matched by ``(code, rel-path, message)`` (line numbers excluded so
  unrelated edits do not churn the file).  Findings in the baseline are
  suppressed and counted; baseline entries that no longer match anything
  report as ``FLW000`` so the file can only shrink.

Waivers are for findings that are *correct but intended* (a settings field
that shapes the request set); the baseline is for *debt* — real findings
accepted at adoption time and burned down over later PRs.

Every pass family reads the one parsed project and :class:`ProjectModel`;
derived structures (the hot set, the RCE families' worker-slice context)
are built on first use through :meth:`ProjectModel.derived`, so a
``select`` that skips a family never pays for what only it needs.
"""

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.baseline import (Finding, apply_baseline, load_baseline,
                                     write_baseline)
from repro.analysis.source import (HYGIENE_CODE, SYNTAX_CODE, Violation,
                                   apply_waivers, parse_project)
from repro.analysis.flow.fingerprint import run_fingerprint_pass
from repro.analysis.flow.lint import run_lint_pass
from repro.analysis.flow.model import ProjectModel
from repro.analysis.flow.purity import hot_set, run_purity_pass
from repro.analysis.flow.units import run_units_pass
from repro.analysis.race.durable import run_durable_pass
from repro.analysis.race.ordering import run_ordering_pass
from repro.analysis.race.payload import run_payload_pass
from repro.analysis.race.worker import build_context, run_worker_pass

__all__ = ["FLOW_CODES", "HYGIENE_CODE", "SYNTAX_CODE", "Finding",
           "FlowReport", "load_baseline", "run_flow", "write_baseline"]

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
    "FLW004": ("cross-dimension arithmetic",
               "adds/subtracts two different physical dimensions without a "
               "conversion"),
    "FLW005": ("cross-dimension comparison",
               "compares two different physical dimensions"),
    "FLW006": ("dimension-lying name",
               "assigns a value of one dimension to a name suffixed as "
               "another"),
    "FLW007": ("hot-path nondeterminism",
               "set iteration, id()-keyed lookups or env reads in or "
               "reachable from the replay loops"),
    "FLW008": ("hot-path allocation",
               "per-op list/dict/set allocation in or reachable from the "
               "replay loops"),
    "FLW009": ("hot-path stats.add",
               "per-event stats.add() in or reachable from the replay "
               "loops"),
    "RCE001": ("unpicklable payload capture",
               "a pool.submit payload captures a closure, bound method, "
               "callback, open handle or lock — it cannot cross the "
               "process boundary intact"),
    "RCE002": ("process-unsafe payload object",
               "a pool.submit payload ships an instance of a class that "
               "holds callbacks, locks or open handles"),
    "RCE003": ("non-atomic durable write",
               "a bench/obs artifact is written with open('w')/"
               ".write_text instead of an atomic temp-file+replace "
               "publish"),
    "RCE004": ("torn-unsafe append",
               "a shared JSONL stream is appended with buffered open('a') "
               "— concurrent appenders can interleave partial lines"),
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
    "RCE008": ("completion-order dependent output",
               "results accumulated in future-completion order instead of "
               "submission-index order"),
    "RCE009": ("set-order dependent output",
               "set iteration feeds an order-sensitive durable output "
               "without sorted(...)"),
    "SIM001": ("wall-clock time source",
               "a call to, bound reference of or from-import of a host "
               "clock (time.perf_counter, datetime.now, ...) breaks "
               "bit-for-bit replay of simulated time"),
    "SIM003": ("float equality on timestamps",
               "==/!= on float host-cycle timestamps is brittle under "
               "refactors that reassociate arithmetic; order them instead"),
    "SIM004": ("mutable or type-lying default",
               "a mutable default is shared across calls; a None default "
               "under a non-Optional annotation lies to every reader"),
    "SIM005": ("raw physical-unit literal",
               "ns/GHz quantities belong in the parameter tables "
               "(SystemConfig, ClockDomain, repro.energy.params), converted "
               "through ClockDomain"),
    "SIM006": ("unregistered PEI intrinsic",
               "a pim_* intrinsic builds its Pei from an op missing from "
               "repro.core.isa.PIM_OPS, an instruction the machine does not "
               "decode"),
    "SIM007": ("undeclared stats key",
               "a literal stats.add/stats.set key missing from "
               "repro.sim.stat_keys silently creates a counter every "
               "consumer reads as zero"),
}

#: Which pass implements which codes (drives --select pass skipping).
_PASSES = (
    (run_lint_pass, ("SIM001", "SIM003", "SIM004", "SIM005", "SIM006",
                     "SIM007")),
    (run_fingerprint_pass, ("FLW001", "FLW002", "FLW003")),
    (run_units_pass, ("FLW004", "FLW005", "FLW006")),
    (run_purity_pass, ("FLW007", "FLW008", "FLW009")),
    (run_payload_pass, ("RCE001", "RCE002")),
    (run_durable_pass, ("RCE003", "RCE004")),
    (run_worker_pass, ("RCE005", "RCE006", "RCE007")),
    (run_ordering_pass, ("RCE008", "RCE009")),
)


@dataclass
class FlowReport:
    """The outcome of one simflow run."""

    findings: List[Finding] = field(default_factory=list)
    baselined: int = 0
    modules: int = 0
    functions: int = 0
    hot_functions: int = 0
    #: Size of the RCE families' worker slice (None when no RCE code ran).
    worker_functions: Optional[int] = None
    select: Optional[Tuple[str, ...]] = None

    @property
    def clean(self) -> bool:
        return not self.findings


def run_flow(
    paths: Sequence,
    select: Optional[Iterable[str]] = None,
    baseline: Optional[Path] = None,
    overrides: Optional[Dict[str, str]] = None,
) -> FlowReport:
    """Run the flow passes over every Python file under ``paths``.

    ``select`` restricts to the given rule codes (a pass whose codes are
    all deselected is skipped entirely).  ``baseline`` names an
    accepted-findings file; matches are suppressed, stale entries reported.
    ``overrides`` substitutes in-memory source text by rel-path suffix —
    the seeded-defect mutants run through this without touching the tree.
    """
    project, syntax_errors = parse_project([Path(p) for p in paths],
                                           overrides=overrides)
    model = ProjectModel(project)

    selected = (set(code.upper() for code in select)
                if select is not None else set(FLOW_CODES))
    raw: List[Violation] = list(syntax_errors)
    for pass_fn, codes in _PASSES:
        if not selected.intersection(codes):
            continue
        raw.extend(v for v in pass_fn(model) if v.code in selected)

    survivors = apply_waivers(project, raw, selected)

    rel_of = {str(m.path): m.rel for m in project.modules}
    findings = [Finding(code=v.code, message=v.message, path=v.path,
                        rel=rel_of.get(v.path, Path(v.path).name),
                        line=v.line, col=v.col)
                for v in survivors]

    baselined = 0
    if baseline is not None and Path(baseline).exists():
        entries = load_baseline(Path(baseline))
        findings, baselined = apply_baseline(findings, entries,
                                             Path(baseline))

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    rce_selected = any(code.startswith("RCE") for code in selected)
    return FlowReport(
        findings=findings,
        baselined=baselined,
        modules=len(project.modules),
        functions=len(model.functions),
        hot_functions=len(model.derived(hot_set)),
        worker_functions=(len(model.derived(build_context).worker_slice)
                          if rce_selected else None),
        select=tuple(sorted(selected)) if select is not None else None,
    )
