"""FLW007–FLW009: hot-path purity via call-graph reachability.

Replay throughput and bit-identity both depend on what the engine's inner
loop can reach.  This pass derives "the hot path" instead of declaring it:
the engine functions are the two replay loops — ``System._run_trace``
(scalar replay) and ``columnar._replay_loop`` (the default engine) — and
the hot set is the call-graph closure over the call targets inside their
``while`` loops (per-batch work like ``telemetry.on_progress`` and the
barrier closures included, once-per-run work like ``_collect`` and the
drain loop excluded).  When a refactor reroutes a loop through a new
helper, the helper joins the hot set automatically — no list to forget to
update.

The rules run on every function of the hot set and on the statements
inside the engine functions' own ``while`` loops:

* **FLW007** — nondeterminism sources: iteration over a ``set`` (order is
  hash-seed-dependent), ``id()``-keyed lookups (identity depends on
  allocation order), and environment reads (results silently depend on
  the shell).  Any of these feeding simulation state breaks the
  bit-replayability contract ``make determinism`` enforces dynamically.
* **FLW008** — per-op allocation sinks: list/dict/set displays,
  comprehensions, and ``list()``/``dict()``/``set()`` constructor calls.
  The hot path's idiom is preallocated slots and in-place mutation; a
  fresh ``[]`` per simulated event is the regression the trace-replay
  speedup was built on removing.  Allocations whose only consumer is a
  ``raise`` are exempt (error paths execute once, then the run is dead).
* **FLW009** — per-event ``stats.add()``: a dict lookup plus a method call
  per simulated event, where the hot path counts through preallocated
  Stats slots (``self._slots[SLOT_*] += x``).  One-shot ``stats.set``
  summary writes are fine.

The ``obs/`` observability layer is carved out by design: its hot-path
entry points are interval-gated (they return after one comparison except
at sample boundaries) or run only behind an ``obs.enabled`` guard, so the
disabled path never reaches its allocations.
"""

import ast
from typing import Iterable, Iterator, List, Set

from repro.analysis.source import (Violation, dotted_name, is_set_expr,
                                   set_typed_locals, terminal_identifier)
from repro.analysis.flow.model import FunctionInfo, ProjectModel

__all__ = ["run_purity_pass", "hot_set"]

#: The replay loops: their while-loop statements are checked, and their
#: while-loop call targets root the hot set.
ENGINE_FUNCTIONS = ("system/system.py:System._run_trace",
                    "system/columnar.py:_replay_loop")

#: Module prefixes exempt from purity findings (interval-gated
#: observability; see the module docstring).
OBS_EXEMPT = ("obs/",)


def _is_obs(rel: str) -> bool:
    return rel.startswith(OBS_EXEMPT) or any(
        f"/{prefix}" in f"/{rel}" for prefix in OBS_EXEMPT)


def _engines(model: ProjectModel) -> List[FunctionInfo]:
    found = (model.find_function(name) for name in ENGINE_FUNCTIONS)
    return [info for info in found if info is not None]


def hot_set(model: ProjectModel) -> Set[str]:
    """Qualnames reachable from the replay loops' call targets.

    Reachability does not propagate *through* ``obs/``: its hot-path entry
    points are interval-gated, so whatever they call runs per-interval,
    not per-op (the carve-out would be meaningless if the closure walked
    straight through it into the sinks it guards).
    """
    roots: Set[str] = set()
    for engine in _engines(model):
        roots.update(model.loop_call_targets(engine))
    seen: Set[str] = set()
    queue = sorted(r for r in roots if r in model.functions)
    while queue:
        current = queue.pop()
        if current in seen:
            continue
        seen.add(current)
        if _is_obs(model.functions[current].module.rel):
            continue
        queue.extend(model.edges.get(current, ()))
    return seen


def run_purity_pass(model: ProjectModel) -> List[Violation]:
    findings: List[Violation] = []
    for engine in _engines(model):
        findings.extend(_check_function(engine,
                                        model.while_loop_nodes(engine)))
    for qualname in sorted(model.derived(hot_set)):
        info = model.functions[qualname]
        if _is_obs(info.module.rel):
            continue
        findings.extend(_check_function(info, _own_nodes(info.node)))
    return findings


def _check_function(info: FunctionInfo,
                    nodes: Iterable[ast.AST]) -> Iterator[Violation]:
    set_locals = set_typed_locals(info.node)
    raise_nodes = _nodes_under_raises(info.node)
    for node in nodes:
        yield from _check_nondeterminism(info, node, set_locals)
        if id(node) not in raise_nodes:
            yield from _check_allocation(info, node)
        yield from _check_stats_add(info, node)


def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Nodes of this function, nested defs excluded (they are hot-set
    members in their own right when the loop actually calls them)."""
    skip: Set[int] = set()
    for child in ast.walk(func):
        if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and child is not func):
            for sub in ast.walk(child):
                skip.add(id(sub))
    for node in ast.walk(func):
        if id(node) not in skip:
            yield node


def _nodes_under_raises(func: ast.AST) -> Set[int]:
    """ids of every node inside a ``raise`` statement (error paths run
    once; their f-string/format allocations are not per-op costs)."""
    under: Set[int] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Raise):
            for sub in ast.walk(node):
                under.add(id(sub))
    return under


# ----------------------------------------------------------------------
# FLW007: nondeterminism sources
# ----------------------------------------------------------------------


def _check_nondeterminism(info: FunctionInfo, node: ast.AST,
                          set_locals: Set[str]) -> Iterator[Violation]:
    if isinstance(node, ast.Call):
        name = terminal_identifier(node.func)
        if name == "id":
            yield _violation(info, node, "FLW007",
                             "`id()` on the hot path — identity hashes "
                             "depend on allocation order and break replay "
                             "bit-identity; key on a stable field instead")
        dotted = dotted_name(node.func) or ""
        if dotted.endswith("os.getenv") or dotted == "getenv" or \
                ".environ." in f".{dotted}." or dotted.endswith("environ.get"):
            yield _violation(info, node, "FLW007",
                             "environment read on the hot path — results "
                             "would silently depend on the shell; read env "
                             "once at configuration time")
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute):
        if node.value.attr == "environ":
            yield _violation(info, node, "FLW007",
                             "environment read on the hot path — results "
                             "would silently depend on the shell; read env "
                             "once at configuration time")
    if isinstance(node, (ast.For, ast.AsyncFor)):
        iter_node = node.iter
        is_set = is_set_expr(iter_node) or (
            isinstance(iter_node, ast.Name) and iter_node.id in set_locals)
        if is_set:
            yield _violation(info, node, "FLW007",
                             "iteration over a set on the hot path — "
                             "order is hash-seed-dependent; iterate a "
                             "sorted() copy or keep a list")


# ----------------------------------------------------------------------
# FLW008: per-op allocation sinks
# ----------------------------------------------------------------------


def _check_allocation(info: FunctionInfo, node: ast.AST) -> Iterator[Violation]:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        kind = type(node).__name__.lower()
        yield _violation(info, node, "FLW008",
                         f"{kind} display allocates per call on the hot "
                         f"path — preallocate outside the loop and mutate "
                         f"in place (`.clear()` instead of rebinding)")
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
        yield _violation(info, node, "FLW008",
                         "comprehension allocates per call on the hot path "
                         "— hoist it out of the per-op code")
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("list", "dict", "set"):
        yield _violation(info, node, "FLW008",
                         f"`{node.func.id}()` allocates per call on the "
                         f"hot path — preallocate and reuse")


# ----------------------------------------------------------------------
# FLW009: per-event stats.add
# ----------------------------------------------------------------------


def _check_stats_add(info: FunctionInfo, node: ast.AST) -> Iterator[Violation]:
    if not isinstance(node, ast.Call):
        return
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr != "add":
        return
    if terminal_identifier(func.value) != "stats":
        return
    yield _violation(info, node, "FLW009",
                     "per-event `stats.add()` in or reachable from the replay "
                     "inner loop — bind a Stats slot once and increment it "
                     "in place")


def _violation(info: FunctionInfo, node: ast.AST, code: str,
               message: str) -> Violation:
    return Violation(code=code, message=message,
                     path=str(info.module.path),
                     line=getattr(node, "lineno", 1),
                     col=getattr(node, "col_offset", 0))
