"""RCE009: set-order soundness for durable outputs.

The frontier's contract is that ``jobs=N`` changes wall-clock time and
nothing else: results, history records and merged ledgers must be
bit-identical to a serial run, and to a rerun in another process.
**RCE009** flags iterating a set (literal, comprehension, ``set()``/
set-algebra expression, or a set-typed local) while feeding an
order-sensitive sink (``append``/``write``/subscript store/``yield``) in a
durable-artifact module.  Set iteration order varies with hash seeding;
wrap the iterable in ``sorted(...)``.
"""

import ast
from typing import List

from repro.analysis.source import Violation, is_set_expr, set_typed_locals
from repro.analysis.flow.model import FunctionInfo, ProjectModel
from repro.analysis.race.durable import _is_durable_module

__all__ = ["run_ordering_pass"]

#: Method calls that make a loop body order-sensitive.
_ORDER_SINKS = frozenset({"append", "extend", "emit", "write", "writelines"})


def run_ordering_pass(model: ProjectModel) -> List[Violation]:
    findings: List[Violation] = []
    for qualname in sorted(model.functions):
        info = model.functions[qualname]
        if _is_durable_module(info.module.rel):
            findings.extend(_check_set_order(info))
    return findings


def _check_set_order(info: FunctionInfo) -> List[Violation]:
    set_locals = set_typed_locals(info.node)
    out: List[Violation] = []
    for node in ast.walk(info.node):
        if not isinstance(node, ast.For):
            continue
        it = node.iter
        if not (is_set_expr(it)
                or (isinstance(it, ast.Name) and it.id in set_locals)):
            continue
        if _order_sensitive_body(node):
            out.append(Violation(
                code="RCE009", path=str(info.module.path),
                line=node.lineno, col=node.col_offset,
                message=("set iteration feeds an order-sensitive output in "
                         "a durable-artifact module — hash seeding varies "
                         "the order across processes; wrap the iterable in "
                         "sorted(...)")))
    return out


def _order_sensitive_body(loop: ast.For) -> bool:
    for node in ast.walk(loop):
        if node is loop:
            continue
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _ORDER_SINKS):
            return True
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Subscript) for t in node.targets):
            return True
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
    return False
