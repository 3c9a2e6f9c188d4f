"""Seeded-defect gauntlet machinery: one mutant record for both gauntlets.

A checker that is never shown a true positive is just a formatter.  Each
:class:`Mutant` is a textual edit of one realistic defect into the
project's own source, plus the code that must catch it, and there is one
seeding step (:func:`_seed`: every anchor must occur exactly once in its
file, or the gauntlet raises ``ValueError`` before any run).  Two ways to
run a seeded tree share it:

* simflow (:func:`run_seeded_mutants`) analyzes an *in-memory* copy of the
  tree (the files on disk are never touched — ``parse_project``'s
  ``overrides`` hook substitutes the source text).  The tree is parsed
  once: every run reuses that parse for the files its mutant leaves alone.
* the protocol checker (:func:`seeded`) runs the imported simulator with
  the mutated methods swapped into its live classes for one sweep.

The kill rule is the same for both: a mutant is *killed* when the checker
reports the mutant's own code.
"""

import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import CodeType, FunctionType
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from repro.analysis.source import collect_files, parse_project

__all__ = ["Mutant", "MutantResult", "collect_sources", "run_seeded_mutants",
           "seeded"]

#: The installed ``repro`` package, whose files :func:`seeded` edits.
_PACKAGE = Path(__file__).resolve().parent.parent


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
    #: simflow: the new findings with the mutant's code; the protocol
    #: checker: every code the seeded sweep reported.
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
):
    """Seed each defect in memory and require the analyzer to catch it.

    ``run_fn(paths, select=..., overrides=..., parsed=...)`` must return a
    report with a ``findings`` list of keyed findings
    (:class:`~repro.analysis.flow.engine.Finding`); ``parsed`` is the one
    parse of ``paths`` every run shares.  The pristine tree runs
    every rule once; each mutated tree runs only ``select=[mutant.code]``,
    so no mutant pays for the other pass families.  A mutant is *killed*
    when the mutated tree produces at least one finding with the mutant's
    code that the pristine tree does not have (same line-independent
    identity).  Raises ``ValueError``, before any run, if a mutant's anchor
    text no longer exists once in its file — a drifted anchor must fail
    loudly, not silently test nothing.

    Returns ``(results, pristine_report)``.
    """
    sources = collect_sources(paths)
    # Seed every mutant before the first run: a drifted anchor anywhere in
    # the catalogue fails in the time of one source read.
    seeded = [(mutant, _seed(mutant, sources)) for mutant in mutants]
    parsed, _ = parse_project([Path(p) for p in paths])
    pristine = run_fn(paths, parsed=parsed)
    pristine_keys = {f.key() for f in pristine.findings}
    results: List[MutantResult] = []
    for mutant, overrides in seeded:
        mutated = run_fn(paths, select=[mutant.code], overrides=overrides,
                         parsed=parsed)
        new = [str(f) for f in mutated.findings
               if f.code == mutant.code and f.key() not in pristine_keys]
        results.append(MutantResult(mutant=mutant, killed=bool(new),
                                    new_findings=new))
    return results, pristine


@contextmanager
def seeded(mutant: Mutant) -> Iterator[None]:
    """Run the block with ``mutant``'s edits live in the imported simulator.

    Each edited file of the installed ``repro`` package (an edit's rel
    suffix is its path under ``repro/``) is read, seeded through
    :func:`_seed` and compiled into a scratch namespace.  For the length
    of the block, each live class method whose code the edits changed
    runs the mutated code (with the original's globals, defaults and
    closure); the originals come back on exit, also when the block
    raises.  Raises ``ValueError`` before the block on a drifted anchor or
    when a file's edits change no method (a comment-only edit tests
    nothing).
    """
    sources = {rel: (_PACKAGE / rel).read_text(encoding="utf-8")
               for rel, _, _ in mutant.edits}
    swaps = [swap for rel, text in _seed(mutant, sources).items()
             for swap in _method_swaps(mutant, rel, text)]
    originals = [(cls, name, cls.__dict__[name]) for cls, name, _ in swaps]
    try:
        for cls, name, method in swaps:
            setattr(cls, name, method)
        yield
    finally:
        for cls, name, method in originals:
            setattr(cls, name, method)


def _seed(mutant: Mutant, sources: Dict[str, str]) -> Dict[str, str]:
    """rel -> mutated text of each file ``mutant`` edits.

    Each anchor must occur exactly once in its file: an ambiguous one
    would edit whichever occurrence comes first.
    """
    overrides: Dict[str, str] = {}
    for rel_suffix, old, new in mutant.edits:
        matches = [rel for rel in sources if rel.endswith(rel_suffix)]
        if len(matches) != 1:
            raise ValueError(
                f"mutant {mutant.name}: {len(matches)} files match "
                f"{rel_suffix!r}")
        text = overrides.get(matches[0], sources[matches[0]])
        occurrences = text.count(old)
        if occurrences == 0:
            raise ValueError(
                f"mutant {mutant.name}: anchor not found in "
                f"{matches[0]} — update the mutant to the current tree")
        if occurrences > 1:
            raise ValueError(
                f"mutant {mutant.name}: anchor occurs {occurrences} times "
                f"in {matches[0]} — extend it until it names one site")
        overrides[matches[0]] = text.replace(old, new)
    return overrides


def _method_swaps(mutant: Mutant, rel: str,
                  text: str) -> List[Tuple[type, str, FunctionType]]:
    """(live class, name, mutated method) for each method ``text`` changes
    in the ``repro`` module whose file is ``rel``."""
    module = importlib.import_module(
        "repro." + rel[:-len(".py")].replace("/", "."))
    scratch: Dict[str, object] = {"__name__": module.__name__}
    exec(compile(text, str(_PACKAGE / rel), "exec"), scratch)
    swaps = []
    for name, live in vars(module).items():
        if not (isinstance(live, type) and live.__module__ == module.__name__):
            continue
        for attr, method in vars(scratch[name]).items():
            original = live.__dict__.get(attr)
            if (isinstance(method, FunctionType)
                    and isinstance(original, FunctionType)
                    and _behavior(method.__code__)
                    != _behavior(original.__code__)):
                mutated = FunctionType(method.__code__, original.__globals__,
                                       attr, original.__defaults__,
                                       original.__closure__)
                mutated.__kwdefaults__ = original.__kwdefaults__
                swaps.append((live, attr, mutated))
    if not swaps:
        raise ValueError(f"mutant {mutant.name}: the edits to {rel} "
                         f"change no method")
    return swaps


def _behavior(code: CodeType) -> tuple:
    """What ``code`` executes, without the lines it sits on."""
    return (code.co_code, code.co_names, code.co_varnames, code.co_freevars,
            code.co_argcount, code.co_kwonlyargcount, code.co_flags,
            tuple(_behavior(c) if isinstance(c, CodeType) else (type(c), c)
                  for c in code.co_consts))
