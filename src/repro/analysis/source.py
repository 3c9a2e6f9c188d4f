"""Shared source model for simflow, the one static analyzer.

Every pass consumes the same parsed view of the tree: a :class:`Module`
per file (source text, AST, waiver pragmas) collected into a
:class:`Project`.  This module owns that data model plus the waiver
machinery every rule shares:

* **Waiver parsing** — ``# simflow: ignore[CODE, ...] -- justification``
  pragmas extracted through :mod:`tokenize`, so pragma-shaped text inside
  strings and docstrings is never mistaken for a live waiver.  There is
  one namespace, for SIM, FLW and RCE codes alike.
* **Waiver application** — a violation is suppressed when a justified
  pragma names its code and sits on the same *logical statement*.  A
  pragma matches not only the exact violation line but any line of the
  statement's header span (its decorators, a multi-line signature, or the
  continuation lines of a multi-line call), because rules anchor their
  report at the statement's first line while the human naturally writes
  the pragma next to the offending token.  Unjustified pragmas and pragmas
  that suppress nothing are themselves reported (``FLW000``), so the tree
  can never silently accumulate unexplained or dead exemptions.
"""

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "HYGIENE_CODE",
    "SYNTAX_CODE",
    "Module",
    "Project",
    "Violation",
    "Waiver",
    "apply_waivers",
    "collect_files",
    "dotted_name",
    "is_set_expr",
    "parse_project",
    "parse_waivers",
    "set_typed_locals",
    "statement_spans",
    "terminal_identifier",
]


#: Hygiene findings: unjustified/stale waivers and stale baseline entries.
HYGIENE_CODE = "FLW000"
#: Unparseable-source findings.
SYNTAX_CODE = "FLW999"


@dataclass(frozen=True)
class Violation:
    """One rule violation at one source location."""

    code: str
    message: str
    path: str
    line: int
    col: int = 0

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class Waiver:
    """An inline ``# simflow: ignore[...]`` pragma."""

    line: int           # line the waiver applies to
    codes: Tuple[str, ...]
    justification: str  # text after the code list; empty = unjustified
    pragma_line: int    # line the comment physically sits on


@dataclass
class Module:
    """One parsed source file plus its waiver pragmas."""

    path: Path
    rel: str
    source: str
    tree: ast.Module
    waivers: List[Waiver] = field(default_factory=list)
    _spans: Optional[Dict[int, Tuple[int, int]]] = None

    def statement_span(self, line: int) -> Optional[Tuple[int, int]]:
        """The header span of the innermost statement containing ``line``."""
        if self._spans is None:
            self._spans = statement_spans(self.tree)
        return self._spans.get(line)


class Project:
    """All modules of one analysis invocation (rules may check across files)."""

    def __init__(self, modules: Sequence[Module]):
        self.modules = list(modules)

    def find(self, rel_suffix: str) -> Optional[Module]:
        for module in self.modules:
            if module.rel.endswith(rel_suffix):
                return module
        return None


# ----------------------------------------------------------------------
# Waiver parsing
# ----------------------------------------------------------------------

_WAIVER_RE = re.compile(
    r"#\s*simflow:\s*ignore\[([A-Za-z0-9_,\s]+)\]\s*(?:(?:--|—|–|-|:)?\s*(\S.*))?$")


def _waiver_from_match(match: "re.Match", lineno: int, own_line: bool,
                       lines: Sequence[str]) -> Waiver:
    codes = tuple(c.strip().upper() for c in match.group(1).split(",") if c.strip())
    justification = (match.group(2) or "").strip()
    # A bare comment line waives the next *code* line — a justification
    # that wraps onto following comment lines still targets the statement.
    target = lineno
    if own_line:
        target = lineno + 1
        while target <= len(lines):
            stripped = lines[target - 1].strip()
            if stripped and not stripped.startswith("#"):
                break
            target += 1
    return Waiver(line=target, codes=codes,
                  justification=justification, pragma_line=lineno)


def parse_waivers(source: str) -> List[Waiver]:
    """Extract the waiver pragmas from real ``#`` comments only.

    Tokenizing (rather than scanning raw lines) keeps pragma *text inside
    strings and docstrings* from being mistaken for a live waiver, which
    matters because unused waivers are themselves a diagnostic.  Sources
    that fail to tokenize fall back to the raw line scan so a syntax error
    still gets best-effort waiver handling.
    """
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return _parse_waivers_raw(source)
    waivers = []
    lines = source.splitlines()
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _WAIVER_RE.search(token.string)
        if match is None:
            continue
        lineno = token.start[0]
        own_line = not token.line[: token.start[1]].strip()
        waivers.append(_waiver_from_match(match, lineno, own_line, lines))
    return waivers


def _parse_waivers_raw(source: str) -> List[Waiver]:
    """Line-scanning fallback for sources the tokenizer rejects."""
    waivers = []
    lines = source.splitlines()
    for lineno, line in enumerate(lines, start=1):
        match = _WAIVER_RE.search(line)
        if match is None:
            continue
        own_line = not line[: match.start()].strip()
        waivers.append(_waiver_from_match(match, lineno, own_line, lines))
    return waivers


# ----------------------------------------------------------------------
# Statement spans (the waiver-matching granularity)
# ----------------------------------------------------------------------


def statement_spans(tree: ast.Module) -> Dict[int, Tuple[int, int]]:
    """Map each source line to the header span of its innermost statement.

    A *header span* is the run of lines a statement's report line speaks
    for: a simple statement spans all its physical lines (a multi-line
    call's continuation lines belong to the statement reported at its
    first line), while a compound statement spans only its header — its
    decorators and signature for a ``def``, the test line(s) for an
    ``if``/``while`` — not its body, whose lines belong to the inner
    statements.  ``ast.walk`` yields parents before children, so inner
    statements overwrite the lines they share with an enclosing one.
    """
    spans: Dict[int, Tuple[int, int]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        decorators = getattr(node, "decorator_list", None)
        if decorators:
            start = min([start] + [d.lineno for d in decorators])
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            # Compound statement: the span covers the header only.
            end = max(start, body[0].lineno - 1)
        else:
            end = node.end_lineno if node.end_lineno is not None else node.lineno
        span = (start, end)
        for line in range(start, end + 1):
            spans[line] = span
    return spans


# ----------------------------------------------------------------------
# Project loading
# ----------------------------------------------------------------------


def collect_files(paths: Iterable[Path]) -> List[Tuple[Path, str]]:
    """(file, rel) pairs for every .py under the given roots."""
    out: List[Tuple[Path, str]] = []
    for root in paths:
        root = Path(root)
        if root.is_file():
            out.append((root, root.name))
        else:
            for file in sorted(root.rglob("*.py")):
                out.append((file, file.relative_to(root).as_posix()))
    return out


def parse_project(
    paths: Iterable[Path],
    overrides: Optional[Dict[str, str]] = None,
) -> Tuple[Project, List[Violation]]:
    """Parse every file under ``paths`` into a Project.

    Files that fail to parse come back as ``FLW999`` violations.

    ``overrides`` maps a relative-path suffix to replacement source text —
    the in-memory mutation hook the seeded-defect self-validation uses to
    analyze a patched tree without copying files.
    """
    modules = []
    errors = []
    for file, rel in collect_files([Path(p) for p in paths]):
        source = file.read_text(encoding="utf-8")
        if overrides:
            for suffix, text in overrides.items():
                if rel.endswith(suffix):
                    source = text
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError as exc:
            errors.append(Violation(
                code=SYNTAX_CODE, message=f"syntax error: {exc.msg}",
                path=str(file), line=exc.lineno or 1, col=exc.offset or 0))
            continue
        modules.append(Module(path=file, rel=rel, source=source, tree=tree,
                              waivers=parse_waivers(source)))
    return Project(modules), errors


# ----------------------------------------------------------------------
# Waiver application
# ----------------------------------------------------------------------


def _waiver_matches(module: Module, waiver: Waiver, violation: Violation) -> bool:
    """Does ``waiver`` target ``violation``'s line?

    Exact-line matches always count.  Otherwise the pragma still applies
    when its target line and the violation line belong to the same logical
    statement — a pragma on a decorator suppresses the finding reported on
    the ``def`` line, and a pragma on any line of a multi-line call
    suppresses the finding reported at the call's first line.
    """
    if violation.line == waiver.line:
        return True
    span = module.statement_span(waiver.line)
    return span is not None and span == module.statement_span(violation.line)


def apply_waivers(
    project: Project,
    raw: Sequence[Violation],
    active_codes: Set[str],
) -> List[Violation]:
    """Suppress waived violations; report waiver-hygiene problems.

    A violation is dropped when a *justified* pragma names its code and
    matches its statement.  An unjustified pragma is reported as
    ``FLW000`` and suppresses nothing; so is a justified pragma that
    matched no violation — but only when every code it names was actually
    checked (``active_codes``), since a selective run says nothing about
    the other rules' waivers.  The result is sorted by location.
    """
    modules_by_path: Dict[str, Module] = {str(m.path): m for m in project.modules}
    # A waiver is "used" if any raw violation matched its line and codes,
    # justified or not — an unjustified match already reports its own
    # hygiene code and should not also read as stale.
    used: Set[int] = set()
    kept: List[Violation] = []
    for violation in raw:
        module = modules_by_path.get(violation.path)
        waived = False
        if module is not None:
            for waiver in module.waivers:
                if (violation.code in waiver.codes
                        and _waiver_matches(module, waiver, violation)):
                    used.add(id(waiver))
                    if waiver.justification:
                        waived = True
                        break
        if not waived:
            kept.append(violation)

    for module in project.modules:
        for waiver in module.waivers:
            if not waiver.justification:
                kept.append(Violation(
                    code=HYGIENE_CODE,
                    message=("waiver without justification — write "
                             "`# simflow: ignore[CODE] -- <reason>`"),
                    path=str(module.path),
                    line=waiver.pragma_line))
            elif (id(waiver) not in used
                    and set(waiver.codes) <= active_codes):
                codes = ", ".join(waiver.codes)
                kept.append(Violation(
                    code=HYGIENE_CODE,
                    message=(f"waiver for {codes} suppresses nothing — "
                             f"delete the stale pragma"),
                    path=str(module.path),
                    line=waiver.pragma_line))
    kept.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return kept


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """Return ``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_identifier(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def is_set_expr(node: ast.AST) -> bool:
    """Is ``node`` an expression that evaluates to a ``set``?

    Covers set displays/comprehensions, ``set()``/``frozenset()``
    constructor calls, and binary operations (``|``, ``&``, ``-``, ``^``)
    where either operand is itself a set expression — the shape of
    ``set(a) | set(b)`` unions whose iteration order is hash-seed-dependent.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and \
            terminal_identifier(node.func) in ("set", "frozenset"):
        return True
    if isinstance(node, ast.BinOp):
        return is_set_expr(node.left) or is_set_expr(node.right)
    return False


def set_typed_locals(func: ast.AST) -> Set[str]:
    """Local names bound to set expressions anywhere in ``func``."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif (isinstance(node, ast.AnnAssign) and node.value is not None
                and is_set_expr(node.value)
                and isinstance(node.target, ast.Name)):
            names.add(node.target.id)
    return names
