"""Seeded-defect gauntlet machinery for the whole-program analyzer.

A static analyzer that is never shown a true positive is just a formatter.
simflow validates itself by seeding: each :class:`Mutant` patches one
realistic defect into an *in-memory* copy of the tree (the files on disk
are never touched — ``parse_project``'s ``overrides`` hook substitutes the
source text) and the analyzer must produce a finding the pristine tree
does not have.  This module owns the mutant record, the source
collection, and the kill-judging loop; the caller supplies the mutant
catalogue (FLW and RCE mutants alike) and the ``run`` function.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.source import collect_files

__all__ = ["Mutant", "MutantResult", "collect_sources", "run_seeded_mutants"]


@dataclass(frozen=True)
class Mutant:
    """One seeded defect: textual edits plus the code that must catch it."""

    name: str
    code: str                              # the rule code that must fire
    description: str
    edits: Tuple[Tuple[str, str, str], ...]  # (rel suffix, old, new)


@dataclass
class MutantResult:
    mutant: Mutant
    killed: bool
    new_findings: List[str]


def collect_sources(paths: Sequence) -> Dict[str, str]:
    """rel -> source text for every file under the analyzed roots."""
    out: Dict[str, str] = {}
    for file, rel in collect_files([Path(p) for p in paths]):
        out[rel] = file.read_text(encoding="utf-8")
    return out


def run_seeded_mutants(
    run_fn: Callable,
    paths: Sequence,
    mutants: Sequence[Mutant],
    baseline: Optional[Path] = None,
):
    """Seed each defect in memory and require the analyzer to catch it.

    ``run_fn(paths, select=..., baseline=..., overrides=...)`` must return
    a report with a ``findings`` list of keyed findings
    (:class:`~repro.analysis.baseline.Finding`).  The pristine tree runs
    every rule once; each mutated tree runs only ``select=[mutant.code]``,
    so no mutant pays for the other pass families.  A mutant is *killed*
    when the mutated tree produces at least one finding with the mutant's
    code that the pristine tree does not have (same line-independent
    identity).  Raises ``ValueError``, before any run, if a mutant's anchor
    text no longer exists — a drifted anchor must fail loudly, not silently
    test nothing.

    Returns ``(results, pristine_report)``.
    """
    sources = collect_sources(paths)
    # Seed every mutant before the first run: a drifted anchor anywhere in
    # the catalogue fails in the time of one source read.
    seeded = [(mutant, _seed(mutant, sources)) for mutant in mutants]
    pristine = run_fn(paths, baseline=baseline)
    pristine_keys = {f.key() for f in pristine.findings}
    results: List[MutantResult] = []
    for mutant, overrides in seeded:
        mutated = run_fn(paths, select=[mutant.code], baseline=baseline,
                         overrides=overrides)
        new = [str(f) for f in mutated.findings
               if f.code == mutant.code and f.key() not in pristine_keys]
        results.append(MutantResult(mutant=mutant, killed=bool(new),
                                    new_findings=new))
    return results, pristine


def _seed(mutant: Mutant, sources: Dict[str, str]) -> Dict[str, str]:
    """rel -> mutated text of each file ``mutant`` edits."""
    overrides: Dict[str, str] = {}
    for rel_suffix, old, new in mutant.edits:
        matches = [rel for rel in sources if rel.endswith(rel_suffix)]
        if len(matches) != 1:
            raise ValueError(
                f"mutant {mutant.name}: {len(matches)} files match "
                f"{rel_suffix!r}")
        text = overrides.get(matches[0], sources[matches[0]])
        if old not in text:
            raise ValueError(
                f"mutant {mutant.name}: anchor not found in "
                f"{matches[0]} — update the mutant to the current tree")
        overrides[matches[0]] = text.replace(old, new, 1)
    return overrides
