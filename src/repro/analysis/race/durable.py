"""RCE003: durable-write discipline for bench/obs artifacts.

Cache entries, trajectory records, telemetry bundles and ledgers are read
back by later runs, by ``history`` and by the dashboard — a process killed
mid-write (or two processes writing at once) must never leave a torn file
behind.  The repo's contract is structural: durable writers in ``bench/``
and ``obs/`` route through :mod:`repro.util.fsio`
(``atomic_write_bytes``/``atomic_write_text``/``atomic_write_json``).

**RCE003** flags a direct ``open(path, "w"/"x"/"+")`` (or ``.write_text``)
in a bench/obs module: a crash between truncate and final flush leaves a
torn artifact that readers parse as corruption.  Route through
``atomic_write_json``/``atomic_write_text``.  The fsio helpers themselves
are exempt — they are the sanctioned implementation the rest of the tree
delegates to.
"""

import ast
from typing import List, Optional, Set

from repro.analysis.source import Violation, terminal_identifier
from repro.analysis.flow.model import ProjectModel

__all__ = ["run_durable_pass"]

#: Path segments that mark a module as producing durable artifacts.
_DURABLE_SEGMENTS = ("bench", "obs")

#: Functions allowed to call open() for writing: the fsio primitives.
_SANCTIONED_DEFS = frozenset({
    "atomic_write_bytes", "atomic_write_text", "atomic_write_json",
})


def _is_durable_module(rel: str) -> bool:
    parts = rel.replace("\\", "/").split("/")
    return any(seg in parts for seg in _DURABLE_SEGMENTS)


def _open_mode(call: ast.Call) -> Optional[str]:
    """The mode string of an ``open``/``os.fdopen`` call, if static."""
    if terminal_identifier(call.func) not in ("open", "fdopen"):
        return None
    mode: Optional[ast.AST] = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None  # dynamic mode: out of scope


def _sanctioned_lines(tree: ast.Module) -> Set[int]:
    """Line numbers inside sanctioned writer definitions."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in _SANCTIONED_DEFS):
            end = getattr(node, "end_lineno", node.lineno)
            lines.update(range(node.lineno, end + 1))
    return lines


def run_durable_pass(model: ProjectModel) -> List[Violation]:
    findings: List[Violation] = []
    for module in model.project.modules:
        if not _is_durable_module(module.rel):
            continue
        sanctioned = _sanctioned_lines(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if node.lineno in sanctioned:
                continue
            mode = _open_mode(node)
            if mode is not None:
                if any(flag in mode for flag in ("w", "x", "+")):
                    findings.append(Violation(
                        code="RCE003", path=str(module.path),
                        line=node.lineno, col=node.col_offset,
                        message=(f"durable artifact written via "
                                 f"open(..., {mode!r}) — a crash mid-write "
                                 f"leaves a torn file; publish atomically "
                                 f"via repro.util.fsio.atomic_write_json/"
                                 f"atomic_write_text")))
            elif (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "write_text"):
                findings.append(Violation(
                    code="RCE003", path=str(module.path),
                    line=node.lineno, col=node.col_offset,
                    message=("durable artifact written via .write_text() — "
                             "truncate-then-write is torn under a crash; "
                             "publish atomically via repro.util.fsio."
                             "atomic_write_text")))
    return findings
