"""RCE008–RCE009: ordering soundness for parallel and set-driven outputs.

The frontier's contract is that ``jobs=N`` changes wall-clock time and
nothing else: results, history records and merged ledgers must be
bit-identical to a serial run.  Two structural hazards break that:

* **RCE008** — iterating futures in *completion* order (``wait(...)``
  result sets, ``as_completed(...)``) while accumulating results by
  ``append``/``extend``.  Completion order is scheduler noise; outputs
  built from it differ run to run.  The sanctioned shape keys results by
  submission index (``envelopes[i] = envelope``) so the loop may consume
  completions in any order and still emit deterministic output.
* **RCE009** — iterating a set (literal, comprehension, ``set()``/
  set-algebra expression, or a set-typed local) while feeding an
  order-sensitive sink (``append``/``write``/subscript store/``yield``)
  in a durable-artifact module.  Set iteration order varies with hash
  seeding; wrap the iterable in ``sorted(...)``.
"""

import ast
from typing import List, Set

from repro.analysis.source import (Violation, is_set_expr, set_typed_locals,
                                   terminal_identifier)
from repro.analysis.flow.model import FunctionInfo, ProjectModel
from repro.analysis.race.durable import _is_durable_module

__all__ = ["run_ordering_pass"]

#: Method calls that make a loop body order-sensitive.
_ORDER_SINKS = frozenset({"append", "extend", "emit", "write", "writelines"})


def run_ordering_pass(model: ProjectModel) -> List[Violation]:
    findings: List[Violation] = []
    for qualname in sorted(model.functions):
        info = model.functions[qualname]
        findings.extend(_check_completion_order(info))
        if _is_durable_module(info.module.rel):
            findings.extend(_check_set_order(info))
    return findings


def _wait_result_names(func: ast.AST) -> Set[str]:
    """Names bound from ``concurrent.futures.wait(...)`` results."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        if not (isinstance(node.value, ast.Call)
                and terminal_identifier(node.value.func) == "wait"):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Tuple):
                names.update(elt.id for elt in target.elts
                             if isinstance(elt, ast.Name))
    return names


def _completion_iter(node: ast.For, wait_names: Set[str]) -> bool:
    it = node.iter
    if isinstance(it, ast.Name) and it.id in wait_names:
        return True
    return (isinstance(it, ast.Call)
            and terminal_identifier(it.func) == "as_completed")


def _body_shape(loop: ast.For):
    """(has order-sensitive accumulation, has indexed reorder store)."""
    accumulates = False
    reorders = False
    for node in ast.walk(loop):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "extend")):
            accumulates = True
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Subscript) for t in node.targets):
            reorders = True
    return accumulates, reorders


def _check_completion_order(info: FunctionInfo) -> List[Violation]:
    wait_names = _wait_result_names(info.node)
    out: List[Violation] = []
    for node in ast.walk(info.node):
        if not isinstance(node, ast.For):
            continue
        if not _completion_iter(node, wait_names):
            continue
        accumulates, reorders = _body_shape(node)
        if accumulates and not reorders:
            out.append(Violation(
                code="RCE008", path=str(info.module.path),
                line=node.lineno, col=node.col_offset,
                message=("results accumulated in future-completion order — "
                         "scheduler noise changes the output across runs "
                         "and jobs counts; key results by submission index "
                         "(results[i] = ...) and emit in index order")))
    return out


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
