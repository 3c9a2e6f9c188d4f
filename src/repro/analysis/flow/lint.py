"""SIM001, SIM003–SIM007: simulator discipline, module by module.

The reproduction's results rest on conventions the code only enforces
implicitly: replayable simulated time (no wall-clock reads, no float
equality on timestamps), Table 2's physical units declared only in the
parameter tables, and complete Table 1 ISA and stats-key registries.
These rules check each module on its own, over the parse simflow already
holds: the pass walks every module once and hands each node to the rules
registered for its type (``@_rule``), so a rule costs a dict lookup per
node, not another walk.  SIM006 and SIM007 first read their registry
module (``core/isa.py``, ``sim/stat_keys.py``); a tree without it leaves
the rule silent.  The catalogue is ``FLOW_CODES`` in
:mod:`repro.analysis.flow.engine`.
"""

import ast
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional, Set,
                    Tuple, Type, Union)

from repro.analysis.source import Module, Violation, dotted_name, terminal_identifier
from repro.analysis.flow.model import ProjectModel

__all__ = ["run_lint_pass"]

#: Wall-clock sources, matched on the full dotted name or its last two parts.
_CLOCKS = frozenset({
    "time.time", "time.monotonic", "time.monotonic_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.process_time", "time.time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
})
_CLOCK_ATTRS = frozenset(name.rsplit(".", 1)[1] for name in _CLOCKS)

_CLOCK_ADVICE = "simulator code must use simulated timestamps only"

#: Name parts that mark an operand as a simulated timestamp (SIM003).
_TIME_TOKENS = frozenset({"time", "timestamp", "completion", "horizon",
                          "deadline", "grant", "arrival"})

_MUTABLE = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
            ast.SetComp, ast.GeneratorExp)

#: The parameter tables where physical-unit literals belong (SIM005).
_UNIT_TABLES = ("sim/clock.py", "energy/params.py", "system/config.py")
_UNIT_SUFFIXES = ("_ns", "_ghz", "_mhz", "_ps")

_ISA = "core/isa.py"
_INTRINSICS = "core/intrinsics.py"
_STAT_KEYS = "sim/stat_keys.py"


class _Walk:
    """One module's walk: the registries its rules read and its findings."""

    def __init__(self, module: Module, registered_ops: Optional[Set[str]],
                 declared_keys: Optional[Set[str]], findings: List[Violation]):
        self.module = module
        self.unit_table = module.rel.endswith(_UNIT_TABLES)
        #: PIM_OPS names, set only while walking core/intrinsics.py.
        self.registered_ops = registered_ops
        #: Declared stats keys; None turns SIM007 off for this module.
        self.declared_keys = declared_keys
        #: Clock attributes already reported as the callee of a call.
        self.called: Set[int] = set()
        self.findings = findings

    def report(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.append(Violation(
            code=code, message=message, path=str(self.module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0)))


#: A rule takes the walk and one node of a type it registered for.
Rule = Callable[[_Walk, Any], None]

#: AST node class -> the rules that want to see nodes of that class.
_RULES: Dict[Type[ast.AST], List[Rule]] = {}


def _rule(*node_types: Type[ast.AST]) -> Callable[[Rule], Rule]:
    def register(fn: Rule) -> Rule:
        for node_type in node_types:
            _RULES.setdefault(node_type, []).append(fn)
        return fn
    return register


def run_lint_pass(model: ProjectModel) -> List[Violation]:
    project = model.project
    isa = project.find(_ISA)
    intrinsics = project.find(_INTRINSICS)
    registered = _registered_ops(isa) if isa is not None else None
    stat_keys = project.find(_STAT_KEYS)
    declared = _declared_keys(stat_keys) if stat_keys is not None else None
    findings: List[Violation] = []
    for module in project.modules:
        walk = _Walk(module, registered if module is intrinsics else None,
                     None if module is stat_keys else declared, findings)
        for node in ast.walk(module.tree):
            for rule in _RULES.get(type(node), ()):
                rule(walk, node)
    return findings


# ----------------------------------------------------------------------
# SIM001: wall-clock time sources
# ----------------------------------------------------------------------


def _clock_name(node: ast.AST) -> Optional[str]:
    if not isinstance(node, ast.Attribute) or node.attr not in _CLOCK_ATTRS:
        return None
    dotted = dotted_name(node)
    if dotted is None:
        return None
    if dotted in _CLOCKS or ".".join(dotted.split(".")[-2:]) in _CLOCKS:
        return dotted
    return None


@_rule(ast.Call)
def _wall_clock_call(walk: _Walk, node: ast.Call) -> None:
    name = _clock_name(node.func)
    if name is not None:
        walk.called.add(id(node.func))
        walk.report("SIM001", node,
                    f"wall-clock call `{name}()` — {_CLOCK_ADVICE}")


@_rule(ast.Attribute)
def _wall_clock_reference(walk: _Walk, node: ast.Attribute) -> None:
    # ast.walk yields a call before its callee, so a called clock is
    # already reported by _wall_clock_call.
    if id(node) in walk.called:
        return
    name = _clock_name(node)
    if name is not None:
        walk.report("SIM001", node,
                    f"wall-clock reference `{name}` — {_CLOCK_ADVICE}")


@_rule(ast.ImportFrom)
def _wall_clock_import(walk: _Walk, node: ast.ImportFrom) -> None:
    if node.module not in ("time", "datetime"):
        return
    for alias in node.names:
        name = f"{node.module}.{alias.name}"
        if name in _CLOCKS:
            walk.report("SIM001", node,
                        f"wall-clock import `{name}` — {_CLOCK_ADVICE}")


# ----------------------------------------------------------------------
# SIM003: float equality on timestamps
# ----------------------------------------------------------------------


def _time_like(node: ast.AST) -> Optional[str]:
    name = terminal_identifier(node)
    if name is not None and _TIME_TOKENS.intersection(name.lower().split("_")):
        return name
    return None


@_rule(ast.Compare)
def _timestamp_equality(walk: _Walk, node: ast.Compare) -> None:
    operands = [node.left, *node.comparators]
    for i, op in enumerate(node.ops):
        if not isinstance(op, (ast.Eq, ast.NotEq)):
            continue
        name = _time_like(operands[i]) or _time_like(operands[i + 1])
        if name is not None:
            walk.report("SIM003", node,
                        f"`==`/`!=` on timestamp-like operand `{name}` — "
                        f"compare timestamps with ordering, not equality")


# ----------------------------------------------------------------------
# SIM004/SIM005: defaults and physical-unit literals
# ----------------------------------------------------------------------


def _defaults(args: ast.arguments) -> List[Tuple[ast.arg, ast.expr]]:
    """(parameter, default) pairs of a signature, keyword-only included."""
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):],
                     args.defaults))
    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
              if d is not None]
    return pairs


def _is_none(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _allows_none(annotation: ast.AST) -> bool:
    """Does the annotation admit ``None`` (Optional/| None/Any/object)?"""
    if isinstance(annotation, ast.Constant):
        if isinstance(annotation.value, str):
            text = annotation.value
            return "None" in text or "Optional" in text or "Any" in text
        return annotation.value is None
    if isinstance(annotation, ast.Name):
        return annotation.id in ("Any", "object", "None")
    if isinstance(annotation, ast.Subscript):
        base = terminal_identifier(annotation.value)
        if base == "Optional":
            return True
        if base == "Union":
            elems = annotation.slice
            if isinstance(elems, ast.Tuple):
                return any(_allows_none(e) for e in elems.elts)
            return _allows_none(elems)
        return False
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _allows_none(annotation.left) or _allows_none(annotation.right)
    if isinstance(annotation, ast.Attribute):
        return annotation.attr == "Any"
    return False


def _unit_name(name: Optional[str]) -> bool:
    return name is not None and name.lower().endswith(_UNIT_SUFFIXES)


def _is_number(node: Optional[ast.AST]) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


@_rule(ast.FunctionDef, ast.AsyncFunctionDef)
def _signature_defaults(walk: _Walk,
                        node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
    """SIM004 and SIM005 on parameter defaults."""
    for arg, default in _defaults(node.args):
        if (not walk.unit_table and _unit_name(arg.arg)
                and _is_number(default)):
            walk.report("SIM005", default,
                        f"raw unit default for `{arg.arg}` in `{node.name}()` "
                        f"— require the caller to pass a parameter-table value")
        if isinstance(default, _MUTABLE):
            walk.report("SIM004", default,
                        f"mutable default for `{arg.arg}` in `{node.name}()` "
                        f"— default to None and build inside the function")
        elif (_is_none(default) and arg.annotation is not None
                and not _allows_none(arg.annotation)):
            walk.report("SIM004", default,
                        f"`{arg.arg}` in `{node.name}()` is annotated "
                        f"non-Optional but defaults to None — annotate "
                        f"`Optional[...]` and normalize explicitly")


@_rule(ast.AnnAssign)
def _annotated_none(walk: _Walk, node: ast.AnnAssign) -> None:
    if _is_none(node.value) and not _allows_none(node.annotation):
        target = terminal_identifier(node.target) or "<target>"
        walk.report("SIM004", node,
                    f"`{target}` is annotated non-Optional but assigned "
                    f"None — use `Optional[...]` (or `| None`)")


@_rule(ast.keyword)
def _unit_keyword(walk: _Walk, node: ast.keyword) -> None:
    if not walk.unit_table and _unit_name(node.arg) and _is_number(node.value):
        walk.report("SIM005", node.value,
                    f"raw unit literal for `{node.arg}=` — take the value "
                    f"from SystemConfig / repro.energy.params instead")


@_rule(ast.Assign, ast.AnnAssign)
def _unit_assignment(walk: _Walk, node: Union[ast.Assign, ast.AnnAssign]) -> None:
    if walk.unit_table or not _is_number(node.value):
        return
    targets: List[ast.expr] = (list(node.targets) if isinstance(node, ast.Assign)
                               else [node.target])
    for target in targets:
        name = terminal_identifier(target)
        if _unit_name(name):
            walk.report("SIM005", node,
                        f"raw unit literal assigned to `{name}` — move it "
                        f"into a parameter table")


# ----------------------------------------------------------------------
# SIM006/SIM007: the ISA and stats-key registries
# ----------------------------------------------------------------------


def _registry_values(statements: Iterable[ast.AST],
                     is_registry: Callable[[str], bool]) -> Iterator[ast.AST]:
    """Every node inside the values assigned to registry names."""
    for node in statements:
        targets: List[ast.expr]
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if node.value is not None and any(
                isinstance(t, ast.Name) and is_registry(t.id) for t in targets):
            yield from ast.walk(node.value)


def _registered_ops(isa: Module) -> Set[str]:
    """Upper-case names listed in the ``PIM_OPS`` construction."""
    return {sub.id for sub in _registry_values(ast.walk(isa.tree),
                                               lambda name: name == "PIM_OPS")
            if isinstance(sub, ast.Name) and sub.id.isupper()}


def _declared_keys(registry: Module) -> Set[str]:
    """String constants in module-level assignments to ``*_KEYS`` names."""
    return {sub.value for sub in _registry_values(
                registry.tree.body, lambda name: name.endswith("_KEYS"))
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)}


@_rule(ast.FunctionDef)
def _intrinsic_ops(walk: _Walk, node: ast.FunctionDef) -> None:
    if walk.registered_ops is None or not node.name.startswith("pim_"):
        return
    ops = [call.args[0] for call in ast.walk(node)
           if isinstance(call, ast.Call)
           and terminal_identifier(call.func) == "Pei" and call.args
           and terminal_identifier(call.args[0]) is not None]
    if not ops:
        walk.report("SIM006", node,
                    f"intrinsic `{node.name}()` constructs no `Pei(...)` "
                    f"record — every pim_* intrinsic must emit exactly one")
    for op in ops:
        name = terminal_identifier(op)
        if name not in walk.registered_ops:
            walk.report("SIM006", op,
                        f"intrinsic `{node.name}()` uses `{name}`, which is "
                        f"not registered in repro.core.isa.PIM_OPS")


@_rule(ast.Call)
def _stats_key(walk: _Walk, node: ast.Call) -> None:
    func = node.func
    if (walk.declared_keys is None or not isinstance(func, ast.Attribute)
            or func.attr not in ("add", "set")
            or terminal_identifier(func.value) != "stats" or not node.args):
        return
    key = node.args[0]
    # A dynamic key is out of a static registry's reach.
    if (isinstance(key, ast.Constant) and isinstance(key.value, str)
            and key.value not in walk.declared_keys):
        walk.report("SIM007", node,
                    f"stats key \"{key.value}\" is not declared in "
                    f"repro.sim.stat_keys — add it to the matching *_KEYS "
                    f"group (or fix the typo)")
