"""``simlint``: static analysis enforcing simulator discipline.

The reproduction's correctness rests on invariants the code only enforces
implicitly: bit-for-bit replayability (no wall-clock reads), a single
notion of simulated time (monotonic float timestamps in host-core cycles,
converted from physical units only inside
:class:`~repro.sim.clock.ClockDomain` and the parameter tables), and a
complete ISA registry.  ``simlint`` is an AST pass (stdlib ``ast``, no
third-party dependencies) that machine-checks those conventions across
``src/repro`` so aggressive refactors cannot silently break them.

Each module is parsed once and walked once: rules declare the node types
they care about (:attr:`Rule.node_types`) and a single dispatch loop feeds
every node to the interested rules, so adding a rule costs a dict lookup
per node rather than another full ``ast.walk`` of the tree.

Rules are identified by ``SIMxxx`` codes.  A violation can be waived with an
inline pragma **carrying a justification**::

    t_retrain_ns = 50.0  # simlint: ignore[SIM005] -- vendor-quoted retrain time

A waiver comment on its own line applies to the following line, and a
pragma anywhere on a multi-line statement (a decorator, a continuation
line of a long call) covers the whole statement.  Waivers without a
justification are themselves reported (``SIM000``), and justified waivers
that no longer suppress anything are reported as stale (``SIM008``), so
the tree can never silently accumulate unexplained or dead exemptions.
Pragma-shaped text inside strings and docstrings (like the example above)
is not a waiver — only real ``#`` comments count.

Use :func:`lint_paths` programmatically or ``python -m repro.analysis lint``
from the command line; see ``docs/analysis.md`` for the rule catalogue.
The interprocedural layer lives in :mod:`repro.analysis.flow`, which also
owns unseeded randomness (RCE007) and per-event ``stats.add`` on the
replay path (FLW009).
"""

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

from repro.analysis.source import (
    Module,
    Project,
    Violation as LintViolation,
    apply_waivers,
    parse_project,
    dotted_name as _dotted_name,
    terminal_identifier as _terminal_identifier,
)

__all__ = [
    "LintViolation",
    "Module",
    "Project",
    "RULES",
    "lint_paths",
    "format_violations",
]


def _annotation_allows_none(annotation: ast.AST) -> bool:
    """Does the annotation admit ``None`` (Optional/| None/Any/object)?"""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        text = annotation.value
        return "None" in text or "Optional" in text or "Any" in text
    if isinstance(annotation, ast.Name):
        return annotation.id in ("Any", "object", "None")
    if isinstance(annotation, ast.Constant) and annotation.value is None:
        return True
    if isinstance(annotation, ast.Subscript):
        base = _terminal_identifier(annotation.value)
        if base == "Optional":
            return True
        if base == "Union":
            elems = annotation.slice
            if isinstance(elems, ast.Tuple):
                return any(_annotation_allows_none(e) for e in elems.elts)
            return _annotation_allows_none(elems)
        return False
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return (_annotation_allows_none(annotation.left)
                or _annotation_allows_none(annotation.right))
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in ("Any",)
    return False


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------


class Rule:
    """Base class: one coded check fed nodes from the shared module walk.

    ``node_types`` names the concrete AST classes the rule wants to see;
    :meth:`visit` receives each matching node exactly once per module.
    :meth:`prepare` runs before the walk (cross-file registries);
    :meth:`finish` runs after it (checks over collected state or over
    specific modules).  :meth:`applies` gates the rule per module
    (exempt-module carve-outs).
    """

    code = "SIM999"
    title = "unnamed rule"
    rationale = ""

    #: Concrete AST node classes this rule's visit() wants.
    node_types: Tuple[Type[ast.AST], ...] = ()

    def applies(self, module: Module) -> bool:
        return True

    def prepare(self, project: Project) -> None:
        pass

    def visit(self, module: Module, node: ast.AST) -> Iterator[LintViolation]:
        return iter(())

    def finish(self, project: Project) -> Iterator[LintViolation]:
        return iter(())

    # Helper ------------------------------------------------------------

    def _violation(self, module: Module, node: ast.AST, message: str) -> LintViolation:
        return LintViolation(
            code=self.code,
            message=message,
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )


class WallClockRule(Rule):
    """SIM001: no wall-clock time sources inside the simulator."""

    code = "SIM001"
    title = "wall-clock time source"
    rationale = ("Simulated time is a deterministic function of the input; "
                 "reading the host's clock breaks bit-for-bit replayability "
                 "(tests/integration/test_determinism.py).")

    node_types = (ast.Call,)

    _FORBIDDEN = {
        "time.time", "time.monotonic", "time.monotonic_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.process_time", "time.time_ns",
        "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
    }

    def visit(self, module: Module, node: ast.AST) -> Iterator[LintViolation]:
        dotted = _dotted_name(node.func)
        if dotted is None:
            return
        tail2 = ".".join(dotted.split(".")[-2:])
        if dotted in self._FORBIDDEN or tail2 in self._FORBIDDEN:
            yield self._violation(
                module, node,
                f"wall-clock call `{dotted}()` — simulator code must use "
                f"simulated timestamps only")


class TimestampEqualityRule(Rule):
    """SIM003: no float ==/!= on timestamps."""

    code = "SIM003"
    title = "float equality on timestamps"
    rationale = ("Timestamps are floats in host cycles; exact equality is "
                 "brittle under refactors that reassociate arithmetic. "
                 "Order comparisons (<, <=) are the only meaningful tests.")

    node_types = (ast.Compare,)

    _TIME_TOKENS = {"time", "timestamp", "completion", "horizon",
                    "deadline", "grant", "arrival"}

    def _is_time_like(self, node: ast.AST) -> bool:
        name = _terminal_identifier(node)
        if name is None:
            return False
        return bool(self._TIME_TOKENS.intersection(name.lower().split("_")))

    def visit(self, module: Module, node: ast.AST) -> Iterator[LintViolation]:
        operands = [node.left] + list(node.comparators)
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[i], operands[i + 1]
            for side in (left, right):
                if self._is_time_like(side):
                    yield self._violation(
                        module, node,
                        f"`==`/`!=` on timestamp-like operand "
                        f"`{_terminal_identifier(side)}` — compare "
                        f"timestamps with ordering, not equality")
                    break


class DefaultArgumentRule(Rule):
    """SIM004: no mutable defaults and no type-lying None defaults."""

    code = "SIM004"
    title = "mutable or type-lying default"
    rationale = ("A mutable default is shared across calls; an annotation "
                 "like `stats: Stats = None` lies to every reader and type "
                 "checker about what the parameter accepts.")

    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.AnnAssign)

    _MUTABLE = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                ast.SetComp, ast.GeneratorExp)

    def visit(self, module: Module, node: ast.AST) -> Iterator[LintViolation]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from self._check_signature(module, node)
        elif isinstance(node, ast.AnnAssign):
            if (node.value is not None
                    and isinstance(node.value, ast.Constant)
                    and node.value.value is None
                    and node.annotation is not None
                    and not _annotation_allows_none(node.annotation)):
                target = _terminal_identifier(node.target) or "<target>"
                yield self._violation(
                    module, node,
                    f"`{target}` is annotated non-Optional but assigned "
                    f"None — use `Optional[...]` (or `| None`)")

    def _check_signature(self, module, node) -> Iterator[LintViolation]:
        args = node.args
        positional = args.posonlyargs + args.args
        pairs = list(zip(positional[len(positional) - len(args.defaults):],
                         args.defaults))
        pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
        for arg, default in pairs:
            if isinstance(default, self._MUTABLE):
                yield self._violation(
                    module, default,
                    f"mutable default for `{arg.arg}` in `{node.name}()` — "
                    f"default to None and build inside the function")
            elif (isinstance(default, ast.Constant) and default.value is None
                    and arg.annotation is not None
                    and not _annotation_allows_none(arg.annotation)):
                yield self._violation(
                    module, default,
                    f"`{arg.arg}` in `{node.name}()` is annotated "
                    f"non-Optional but defaults to None — annotate "
                    f"`Optional[...]` and normalize explicitly")


class RawUnitLiteralRule(Rule):
    """SIM005: raw ns/GHz literals only in the sanctioned parameter tables."""

    code = "SIM005"
    title = "raw physical-unit literal"
    rationale = ("Global time is host-core cycles; nanosecond and GHz "
                 "quantities must be declared in the parameter tables "
                 "(SystemConfig, ClockDomain defaults, repro.energy.params) "
                 "and converted through ClockDomain, or every scaling sweep "
                 "silently desynchronizes.")

    node_types = (ast.keyword, ast.Assign, ast.AnnAssign,
                  ast.FunctionDef, ast.AsyncFunctionDef)

    #: Unit-bearing parameter tables where physical constants belong.
    ALLOWED_MODULES = ("sim/clock.py", "energy/params.py", "system/config.py")

    _SUFFIXES = ("_ns", "_ghz", "_mhz", "_ps")

    def applies(self, module: Module) -> bool:
        return not module.rel.endswith(self.ALLOWED_MODULES)

    def _suffixed(self, name: Optional[str]) -> bool:
        return name is not None and name.lower().endswith(self._SUFFIXES)

    def visit(self, module: Module, node: ast.AST) -> Iterator[LintViolation]:
        if isinstance(node, ast.keyword):
            if self._suffixed(node.arg) and self._is_numeric(node.value):
                yield self._violation(
                    module, node.value,
                    f"raw unit literal for `{node.arg}=` — take the value "
                    f"from SystemConfig / repro.energy.params instead")
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                name = _terminal_identifier(target)
                if self._suffixed(name) and self._is_numeric(node.value):
                    yield self._violation(
                        module, node,
                        f"raw unit literal assigned to `{name}` — move it "
                        f"into a parameter table")
        elif isinstance(node, ast.AnnAssign):
            name = _terminal_identifier(node.target)
            if self._suffixed(name) and self._is_numeric(node.value):
                yield self._violation(
                    module, node,
                    f"raw unit literal assigned to `{name}` — move it "
                    f"into a parameter table")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(
                positional[len(positional) - len(args.defaults):],
                args.defaults))
            pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
            for arg, default in pairs:
                if self._suffixed(arg.arg) and self._is_numeric(default):
                    yield self._violation(
                        module, default,
                        f"raw unit default for `{arg.arg}` in "
                        f"`{node.name}()` — require the caller to pass a "
                        f"parameter-table value")

    @staticmethod
    def _is_numeric(node: Optional[ast.AST]) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return (isinstance(node, ast.Constant)
                and isinstance(node.value, (int, float))
                and not isinstance(node.value, bool))


class IntrinsicRegistryRule(Rule):
    """SIM006: every pim_* intrinsic uses an ISA-registered operation."""

    code = "SIM006"
    title = "unregistered PEI intrinsic"
    rationale = ("The dispatch tables, energy model, and Table 1 checks all "
                 "key on PIM_OPS; an intrinsic wrapping an op missing from "
                 "the registry would simulate an instruction the machine "
                 "does not decode.")

    # Confined to two known modules: cheaper to walk just those in finish()
    # than to tap the shared walk over the whole tree.

    def finish(self, project: Project) -> Iterator[LintViolation]:
        isa = project.find("core/isa.py")
        intrinsics = project.find("core/intrinsics.py")
        if isa is None or intrinsics is None:
            return
        registered = self._registered_ops(isa)
        for func in ast.walk(intrinsics.tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            if not func.name.startswith("pim_"):
                continue
            ops = self._ops_constructed(func)
            if not ops:
                yield self._violation(
                    intrinsics, func,
                    f"intrinsic `{func.name}()` constructs no `Pei(...)` "
                    f"record — every pim_* intrinsic must emit exactly one")
                continue
            for name, node in ops:
                if name not in registered:
                    yield self._violation(
                        intrinsics, node,
                        f"intrinsic `{func.name}()` uses `{name}`, which is "
                        f"not registered in repro.core.isa.PIM_OPS")

    @staticmethod
    def _registered_ops(isa: Module) -> Set[str]:
        """Names listed in the PIM_OPS registry construction."""
        registered: Set[str] = set()
        for node in ast.walk(isa.tree):
            targets = []
            if isinstance(node, ast.Assign):
                targets = [t for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target]
            if not any(t.id == "PIM_OPS" for t in targets):
                continue
            value = node.value
            if value is None:
                continue
            for sub in ast.walk(value):
                if isinstance(sub, ast.Name) and sub.id.isupper():
                    registered.add(sub.id)
        return registered

    @staticmethod
    def _ops_constructed(func: ast.FunctionDef) -> List[Tuple[str, ast.AST]]:
        ops = []
        for node in ast.walk(func):
            if (isinstance(node, ast.Call)
                    and _terminal_identifier(node.func) == "Pei"
                    and node.args):
                first = node.args[0]
                name = _terminal_identifier(first)
                if name is not None:
                    ops.append((name, first))
        return ops


class StatsKeyRegistryRule(Rule):
    """SIM007: literal stats keys must be declared in sim/stat_keys.py."""

    code = "SIM007"
    title = "undeclared stats key"
    rationale = ("The Stats namespace is flat and typo-prone: a misspelled "
                 "key silently creates a parallel counter that every "
                 "consumer reads as zero.  All literal `stats.add`/"
                 "`stats.set` keys must appear in the repro.sim.stat_keys "
                 "registry.")

    node_types = (ast.Call,)

    _REGISTRY = "sim/stat_keys.py"
    _METHODS = ("add", "set")

    def __init__(self):
        self._declared: Optional[Set[str]] = None
        self._registry: Optional[Module] = None

    def prepare(self, project: Project) -> None:
        self._registry = project.find(self._REGISTRY)
        self._declared = (self._declared_keys(self._registry)
                          if self._registry is not None else None)

    def applies(self, module: Module) -> bool:
        return self._declared is not None and module is not self._registry

    def visit(self, module: Module, node: ast.AST) -> Iterator[LintViolation]:
        key = self._literal_stats_key(node)
        if key is not None and key not in self._declared:
            yield self._violation(
                module, node,
                f"stats key \"{key}\" is not declared in "
                f"repro.sim.stat_keys — add it to the matching "
                f"*_KEYS group (or fix the typo)")

    @classmethod
    def _literal_stats_key(cls, node: ast.AST) -> Optional[str]:
        """The literal key of a ``<...>.stats.add("key")``-shaped call."""
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in cls._METHODS:
            return None
        if _terminal_identifier(func.value) != "stats":
            return None
        if not node.args:
            return None
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
        return None  # dynamic key — out of scope for a static registry

    @staticmethod
    def _declared_keys(registry: Module) -> Set[str]:
        """String constants in module-level assignments to ``*_KEYS`` names."""
        declared: Set[str] = set()
        for node in registry.tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = [t for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target]
            if not any(t.id.endswith("_KEYS") for t in targets):
                continue
            value = node.value
            if value is None:
                continue
            for sub in ast.walk(value):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    declared.add(sub.value)
        return declared


#: The rule registry, keyed by code.
RULES: Dict[str, Rule] = {
    rule.code: rule
    for rule in (
        WallClockRule(),
        TimestampEqualityRule(),
        DefaultArgumentRule(),
        RawUnitLiteralRule(),
        IntrinsicRegistryRule(),
        StatsKeyRegistryRule(),
    )
}

#: Waiver hygiene pseudo-rules (not waivable themselves).
WAIVER_CODE = "SIM000"
UNUSED_WAIVER_CODE = "SIM008"


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def run_rules(project: Project, rules: Sequence[Rule]) -> List[LintViolation]:
    """One shared walk per module, dispatching nodes to interested rules."""
    raw: List[LintViolation] = []
    for rule in rules:
        rule.prepare(project)
    for module in project.modules:
        dispatch: Dict[Type[ast.AST], List[Rule]] = {}
        for rule in rules:
            if not rule.node_types or not rule.applies(module):
                continue
            for node_type in rule.node_types:
                dispatch.setdefault(node_type, []).append(rule)
        if not dispatch:
            continue
        for node in ast.walk(module.tree):
            interested = dispatch.get(type(node))
            if interested is None:
                continue
            for rule in interested:
                raw.extend(rule.visit(module, node))
    for rule in rules:
        raw.extend(rule.finish(project))
    return raw


def lint_paths(
    paths: Sequence,
    select: Optional[Iterable[str]] = None,
) -> List[LintViolation]:
    """Lint every Python file under ``paths``; return surviving violations.

    ``select`` restricts checking to the given rule codes (waiver hygiene is
    always checked).  Violations waived by a justified inline pragma are
    suppressed; unjustified pragmas surface as ``SIM000``, and pragmas that
    suppress nothing surface as ``SIM008`` so stale waivers cannot outlive
    the code they excused (only when every waived code's rule actually ran —
    a ``select`` that skips the rule says nothing about the waiver).
    """
    project, violations = parse_project(
        [Path(p) for p in paths], tool="simlint", syntax_error_code="SIM999")
    active = [RULES[c] for c in select] if select is not None else list(RULES.values())
    active_codes = {rule.code for rule in active}
    raw: List[LintViolation] = list(violations)
    raw.extend(run_rules(project, active))
    return apply_waivers(project, raw, active_codes,
                         unjustified_code=WAIVER_CODE,
                         stale_code=UNUSED_WAIVER_CODE)


def format_violations(violations: Sequence[LintViolation]) -> str:
    if not violations:
        return "simlint: clean"
    lines = [str(v) for v in violations]
    lines.append(f"simlint: {len(violations)} violation(s)")
    return "\n".join(lines)
