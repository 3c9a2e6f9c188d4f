"""RCE001–RCE002: cross-process payload safety.

Everything a ``pool.submit`` call captures crosses a process boundary by
pickling.  Closures, bound methods, open file handles and lock objects
either fail to pickle outright (spawn) or — worse — pickle *by value* and
silently decouple from the parent (fork): a listener shipped into a worker
fires into a dead copy of the parent's state.  The payload pass therefore
traces every expression that flows into a submit call's payload — through
payload-tuple list comprehensions and comprehension variables — and
requires each to be a frozen, picklable value:

* **RCE001** — the payload (or the submit target itself) is a lambda, a
  nested function, a bound method, a callback-shaped parameter
  (``Callable``-annotated or named ``on_*``/``listener``/``callback``), an
  ``open()`` handle, or a lock/synchronization primitive.
* **RCE002** — the payload is an instance of a *structurally
  process-unsafe class*: one whose methods store a callback/listener,
  a lock, or an open handle on ``self`` (transitively, through the flow
  model's attribute types).  ``RunLedger`` is the canonical example — its
  ``listener`` makes the parent-side object meaningless in a worker, which
  is why workers build bare events and ship them back in the envelope.
"""

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.source import Violation, terminal_identifier
from repro.analysis.flow.model import FunctionInfo, ProjectModel
from repro.analysis.race.worker import build_context

__all__ = ["run_payload_pass", "worker_unsafe_classes"]

#: Parameter names that conventionally carry callables.
_CALLBACK_NAMES = frozenset({
    "listener", "callback", "hook", "on_event", "on_payload", "on_progress",
})

#: Constructors of process-local synchronization primitives.
_LOCK_CLASSES = frozenset({
    "Lock", "RLock", "Semaphore", "BoundedSemaphore", "Event", "Condition",
    "Barrier",
})

#: Bound on payload-provenance chain walks (defensive; real chains are 2-3).
_MAX_DEPTH = 8


def _is_callable_annotation(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    for sub in ast.walk(node):
        if terminal_identifier(sub) == "Callable":
            return True
    return False


def worker_unsafe_classes(model: ProjectModel) -> Dict[str, str]:
    """class name -> why instances must not cross a process boundary."""
    unsafe: Dict[str, str] = {}
    for name, cls in model.classes.items():
        for method in cls.methods.values():
            reason = _unsafe_store_in(method)
            if reason is not None:
                unsafe.setdefault(name, reason)
    # An instance holding an unsafe instance is itself unsafe (two rounds
    # settle one-step chains, mirroring the flow model's attr inference).
    for _ in range(2):
        for (owner, attr), value_cls in sorted(model.attr_types.items()):
            if value_cls in unsafe and owner not in unsafe:
                unsafe[owner] = (f"stores a {value_cls} in self.{attr} "
                                 f"({unsafe[value_cls]})")
    return unsafe


def _unsafe_store_in(method: FunctionInfo) -> Optional[str]:
    params = {arg.arg: arg.annotation
              for arg in (*method.node.args.posonlyargs,
                          *method.node.args.args,
                          *method.node.args.kwonlyargs)}
    for node in ast.walk(method.node):
        if not isinstance(node, ast.Assign):
            continue
        stores_self = any(
            isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
            and t.value.id == "self" for t in node.targets)
        if not stores_self:
            continue
        value = node.value
        if isinstance(value, ast.Call):
            ctor = terminal_identifier(value.func)
            if ctor in _LOCK_CLASSES:
                return f"holds a {ctor}() synchronization primitive"
            if ctor == "open":
                return "holds an open file handle"
        if isinstance(value, ast.Name) and value.id in params:
            if (value.id in _CALLBACK_NAMES
                    or _is_callable_annotation(params[value.id])):
                return f"holds the `{value.id}` callback/listener"
    return None


# ----------------------------------------------------------------------
# Payload provenance
# ----------------------------------------------------------------------

#: Binding to the element of an iterable, vs. directly to an expression.
_ELEM = "elem"


def _bindings(func: ast.AST) -> Dict[str, Tuple[str, ast.AST]]:
    """name -> ("expr", value) | ("elem", iterable) across the function.

    Comprehension and ``for`` targets bind to *elements* of their
    iterables; ``enumerate``/``zip`` wrappers are unwrapped positionally
    so ``for i, payload in enumerate(payloads)`` binds ``payload`` to an
    element of ``payloads``.
    """
    out: Dict[str, Tuple[str, ast.AST]] = {}

    def bind_target(target: ast.AST, iterable: ast.AST) -> None:
        call_name = (terminal_identifier(iterable.func)
                     if isinstance(iterable, ast.Call) else None)
        if isinstance(target, ast.Name):
            out[target.id] = (_ELEM, iterable)
            return
        if not isinstance(target, ast.Tuple):
            return
        if call_name == "enumerate" and iterable.args:
            # (index, item): only the item carries payload provenance.
            for elt in target.elts[1:]:
                bind_target(elt, iterable.args[0])
        elif call_name == "zip":
            for elt, src in zip(target.elts, iterable.args):
                bind_target(elt, src)
        else:
            for elt in target.elts:
                bind_target(elt, iterable)

    for node in ast.walk(func):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            out[node.targets[0].id] = ("expr", node.value)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            bind_target(node.target, node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                               ast.DictComp)):
            for gen in node.generators:
                bind_target(gen.target, gen.iter)
    return out


def _resolve(expr: ast.AST, bindings: Dict[str, Tuple[str, ast.AST]],
             depth: int, seen: Set[int]) -> Iterator[ast.AST]:
    """Terminal expressions an argument may evaluate to (over-approximate)."""
    if depth <= 0 or id(expr) in seen:
        yield expr
        return
    seen.add(id(expr))
    if isinstance(expr, ast.Tuple):
        for elt in expr.elts:
            yield from _resolve(elt, bindings, depth - 1, seen)
        return
    if isinstance(expr, ast.Name) and expr.id in bindings:
        kind, source = bindings[expr.id]
        if kind == "expr":
            yield from _resolve(source, bindings, depth - 1, seen)
            return
        # Element of an iterable: resolve the iterable, then take element
        # expressions where they are statically visible.
        for container in _resolve(source, bindings, depth - 1, seen):
            if isinstance(container, (ast.ListComp, ast.SetComp,
                                      ast.GeneratorExp)):
                yield from _resolve(container.elt, bindings, depth - 1, seen)
            elif isinstance(container, (ast.List, ast.Set)):
                for elt in container.elts:
                    yield from _resolve(elt, bindings, depth - 1, seen)
            else:
                yield container
        return
    yield expr


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------


def run_payload_pass(model: ProjectModel) -> List[Violation]:
    unsafe = worker_unsafe_classes(model)
    findings: List[Violation] = []
    for info, call in model.derived(build_context).submits:
        findings.extend(_check_submit(model, info, call, unsafe))
    return findings


def _nested_defs(func: ast.AST) -> Set[str]:
    return {node.name for node in ast.walk(func)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not func}


def _check_submit(model: ProjectModel, info: FunctionInfo, call: ast.Call,
                  unsafe: Dict[str, str]) -> Iterator[Violation]:
    types = model.local_types(info)
    nested = _nested_defs(info.node)
    params = {arg.arg: arg.annotation
              for arg in (*info.node.args.posonlyargs, *info.node.args.args,
                          *info.node.args.kwonlyargs)}
    bindings = _bindings(info.node)

    def violation(node: ast.AST, code: str, message: str) -> Violation:
        return Violation(code=code, message=message,
                         path=str(info.module.path),
                         line=getattr(node, "lineno", call.lineno),
                         col=getattr(node, "col_offset", call.col_offset))

    # The submit target itself must be a top-level function.
    if call.args:
        target = call.args[0]
        if isinstance(target, ast.Lambda):
            yield violation(target, "RCE001",
                            "pool.submit target is a lambda — closures "
                            "cannot cross the process boundary under spawn; "
                            "submit a module-level function and pass its "
                            "inputs through the payload")
        elif isinstance(target, ast.Name) and target.id in nested:
            yield violation(target, "RCE001",
                            f"pool.submit target `{target.id}` is a nested "
                            f"function — unpicklable under spawn; hoist it "
                            f"to module level")

    payload_args = list(call.args[1:]) + [kw.value for kw in call.keywords]
    for arg in payload_args:
        for expr in _resolve(arg, bindings, _MAX_DEPTH, set()):
            yield from _classify(expr, info, model, types, nested, params,
                                 unsafe, violation)


def _classify(expr: ast.AST, info: FunctionInfo, model: ProjectModel,
              types: Dict[str, str], nested: Set[str],
              params: Dict[str, Optional[ast.AST]],
              unsafe: Dict[str, str], violation) -> Iterator[Violation]:
    if isinstance(expr, ast.Lambda):
        yield violation(expr, "RCE001",
                        "payload captures a lambda — unpicklable under "
                        "spawn and a detached closure under fork; ship "
                        "frozen data instead")
        return
    if isinstance(expr, ast.Name):
        name = expr.id
        if name in nested:
            yield violation(expr, "RCE001",
                            f"payload captures nested function `{name}` — "
                            f"unpicklable under spawn; ship frozen data and "
                            f"rebuild behavior worker-side")
        elif (name in _CALLBACK_NAMES
                or (name in params
                    and _is_callable_annotation(params[name]))):
            yield violation(expr, "RCE001",
                            f"payload captures callback `{name}` — a "
                            f"callable shipped to a worker fires into a "
                            f"dead copy of the parent; keep callbacks "
                            f"parent-side and forward envelope events")
        elif types.get(name) in unsafe:
            cls = types[name]
            yield violation(expr, "RCE002",
                            f"payload captures `{name}`, a {cls} instance "
                            f"— {unsafe[cls]}; process-unsafe state must "
                            f"stay parent-side (ship bare events/data)")
        return
    if isinstance(expr, ast.Call):
        ctor = terminal_identifier(expr.func)
        if ctor == "open":
            yield violation(expr, "RCE001",
                            "payload captures an open() handle — file "
                            "objects cannot cross the process boundary; "
                            "pass the path and reopen worker-side")
        elif ctor in _LOCK_CLASSES:
            yield violation(expr, "RCE001",
                            f"payload captures a {ctor}() — process-local "
                            f"synchronization primitives do not survive "
                            f"pickling; coordinate through the pool instead")
        elif ctor in unsafe:
            yield violation(expr, "RCE002",
                            f"payload constructs a {ctor} — {unsafe[ctor]}; "
                            f"process-unsafe state must stay parent-side "
                            f"(ship bare events/data)")
        return
    if isinstance(expr, ast.Attribute):
        recv = model.expr_type(info, expr.value, types)
        if recv is not None:
            cls_info = model.classes.get(recv)
            if cls_info is not None and expr.attr in cls_info.methods:
                yield violation(expr, "RCE001",
                                f"payload captures bound method "
                                f"`{recv}.{expr.attr}` — it drags the whole "
                                f"instance across the process boundary; "
                                f"ship the data it needs instead")
