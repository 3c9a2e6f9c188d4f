"""Project model: function index, class index, call graph, reachability.

The model is deliberately *approximate in the safe direction for each
client*.  Call edges are resolved in tiers — lexical scope, ``self``
dispatch, receiver types inferred from ``self.x = Class(...)`` assignments
and annotations, then a name-based fallback over every project function
with that method name — so the graph over-approximates real call targets
(reachability clients like the hot-path purity pass see a superset and
cannot miss a callee through a dynamic dispatch they failed to resolve).
A blocklist keeps container-protocol names (``append``, ``get``, …) from
wiring the whole project together through ``dict``/``list`` method calls.

Everything here is derived from the parsed :class:`~repro.analysis.source.
Module` objects; no simulator code is imported or executed.
"""

import ast
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Optional, Sequence, Set,
                    Tuple, TypeVar)

from repro.analysis.source import Module, Project, dotted_name, terminal_identifier

__all__ = ["ClassInfo", "FunctionInfo", "ProjectModel"]

T = TypeVar("T")


#: Attribute names whose calls are overwhelmingly container/stdlib protocol
#: methods; following them by name would connect unrelated classes through
#: every ``dict.get`` and ``list.append`` in the tree.
_FALLBACK_BLOCKLIST = frozenset({
    "append", "extend", "pop", "popitem", "push", "get", "items", "keys",
    "values", "setdefault", "update", "add", "clear", "discard", "remove",
    "sort", "reverse", "count", "index", "insert_left", "copy", "split",
    "join", "strip", "lstrip", "rstrip", "format", "encode", "decode",
    "startswith", "endswith", "lower", "upper", "replace", "move_to_end",
    "tolist", "read_text", "write_text", "write", "open", "close", "exists",
    "mkdir", "resolve", "relative_to", "as_posix", "heappush", "heappop",
    "heapify", "to_dict", "from_dict",
})


@dataclass
class FunctionInfo:
    """One function or method (nested defs included)."""

    qualname: str                 # "<rel>:Outer.inner" (def nesting dotted)
    name: str
    module: Module
    node: ast.AST                 # FunctionDef | AsyncFunctionDef
    cls: Optional[str] = None     # enclosing class name, if a method


@dataclass
class ClassInfo:
    """One class: its methods, bases and annotated/assigned attribute types."""

    name: str
    module: Module
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    bases: Tuple[str, ...] = ()


class ProjectModel:
    """Functions, classes, attribute types and the call graph of a Project."""

    def __init__(self, project: Project):
        self.project = project
        #: qualname -> FunctionInfo
        self.functions: Dict[str, FunctionInfo] = {}
        #: simple name -> [FunctionInfo] (dispatch fallback)
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        #: class name -> ClassInfo (last definition wins; names are unique
        #: in this tree)
        self.classes: Dict[str, ClassInfo] = {}
        #: class name -> every definition (collision-aware class-call
        #: resolution prefers the caller's own module)
        self.class_defs: Dict[str, List[ClassInfo]] = {}
        #: (class name, attribute) -> class name of the attribute's value
        self.attr_types: Dict[Tuple[str, str], str] = {}
        #: function simple name -> class name (from `-> Class` annotations)
        self.return_types: Dict[str, str] = {}
        #: caller qualname -> callee qualnames
        self.edges: Dict[str, Set[str]] = {}
        #: factory -> its result over this model (see :meth:`derived`)
        self._derived: Dict[Callable, object] = {}
        self._index()
        self._infer_return_types()
        self._infer_attr_types()
        for info in self.functions.values():
            self.edges[info.qualname] = self._resolve_calls(info)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------

    def _index(self) -> None:
        for module in self.project.modules:
            self._index_body(module, module.tree.body, prefix="", cls=None)

    def _index_body(self, module: Module, body: Sequence[ast.stmt],
                    prefix: str, cls: Optional[str]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{module.rel}:{prefix}{node.name}"
                info = FunctionInfo(qualname=qual, name=node.name,
                                    module=module, node=node, cls=cls)
                self.functions[qual] = info
                self.by_name.setdefault(node.name, []).append(info)
                if cls is not None and cls in self.classes:
                    self.classes[cls].methods[node.name] = info
                # Nested defs belong to their enclosing function's scope;
                # the class context does not propagate through them.
                self._index_body(module, node.body,
                                 prefix=f"{prefix}{node.name}.", cls=None)
            elif isinstance(node, ast.ClassDef):
                bases = tuple(b for b in
                              (terminal_identifier(base) for base in node.bases)
                              if b is not None)
                self.classes[node.name] = ClassInfo(
                    name=node.name, module=module, node=node, bases=bases)
                self.class_defs.setdefault(node.name, []).append(
                    self.classes[node.name])
                self._index_body(module, node.body,
                                 prefix=f"{prefix}{node.name}.", cls=node.name)

    def _infer_return_types(self) -> None:
        """``def f(...) -> Class`` annotations, keyed by simple name.

        A name annotated with two different project classes across the tree
        is dropped (conflicting evidence beats a wrong guess)."""
        conflicting: Set[str] = set()
        for info in self.functions.values():
            returns = getattr(info.node, "returns", None)
            hint = (terminal_identifier(returns)
                    if returns is not None else None)
            if hint not in self.classes:
                continue
            existing = self.return_types.get(info.name)
            if existing is not None and existing != hint:
                conflicting.add(info.name)
            self.return_types[info.name] = hint
        for name in conflicting:
            del self.return_types[name]

    def _infer_attr_types(self) -> None:
        """Attribute type hints: ``x: Class`` class-body annotations plus
        ``self.x = <typed expr>`` assignments (a constructed class, an
        annotated parameter, a ``-> Class`` factory call, ...).

        Two rounds so attribute chains settle — ``self.machine =
        build_machine(...)`` in one class feeds ``machine.executor`` typing
        in another.
        """
        for round_ in range(2):
            for cls in self.classes.values():
                for stmt in cls.node.body:
                    if (isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)):
                        hint = self._annotation_class(stmt.annotation)
                        if hint is not None:
                            self.attr_types[(cls.name, stmt.target.id)] = hint
                for method in cls.methods.values():
                    types = self._local_types(method)
                    for node in ast.walk(method.node):
                        if isinstance(node, ast.AnnAssign):
                            # ``self.obs: NullObs = NULL_OBS``
                            target = node.target
                            hint = self._annotation_class(node.annotation)
                            if (hint is not None
                                    and isinstance(target, ast.Attribute)
                                    and isinstance(target.value, ast.Name)
                                    and target.value.id == "self"):
                                self.attr_types[(cls.name, target.attr)] = hint
                            continue
                        if not isinstance(node, ast.Assign):
                            continue
                        value_cls = self._expr_type(method, node.value, types)
                        if value_cls is None:
                            continue
                        for target in node.targets:
                            if (isinstance(target, ast.Attribute)
                                    and isinstance(target.value, ast.Name)
                                    and target.value.id == "self"):
                                self.attr_types[(cls.name, target.attr)] = \
                                    value_cls

    def _annotation_class(self, node: Optional[ast.AST]) -> Optional[str]:
        """Project class named by an annotation; unwraps ``Optional[X]``.

        Container annotations (``List[X]``, ``Dict[..]``) yield None — the
        annotated value is the container, not the element.
        """
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Forward reference (``system: "System"``): parse the string.
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.Subscript):
            if terminal_identifier(node.value) == "Optional":
                return self._annotation_class(node.slice)
            return None
        hint = terminal_identifier(node)
        return hint if hint in self.classes else None

    def _constructed_class(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Call):
            name = terminal_identifier(node.func)
            if name in self.classes:
                return name
            if name is not None:              # factory with -> Class annotation
                return self.return_types.get(name)
        return None

    # ------------------------------------------------------------------
    # Local type environments
    # ------------------------------------------------------------------

    def _local_types(self, info: FunctionInfo) -> Dict[str, str]:
        """Local name -> project class, from annotations and assignments.

        Two passes over the assignment list so one-step chains settle
        (``machine = self.machine`` then ``executor = machine.executor``).
        """
        types: Dict[str, str] = {}
        args = info.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            hint = self._annotation_class(arg.annotation)
            if hint is not None:
                types[arg.arg] = hint
        assigns = [n for n in ast.walk(info.node)
                   if isinstance(n, (ast.Assign, ast.AnnAssign))]
        for _ in range(2):
            for node in assigns:
                if isinstance(node, ast.AnnAssign):
                    hint = self._annotation_class(node.annotation)
                    if (isinstance(node.target, ast.Name)
                            and hint is not None):
                        types[node.target.id] = hint
                    continue
                inferred = self._expr_type(info, node.value, types)
                if inferred is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        types[target.id] = inferred
        return types

    def _expr_type(self, info: FunctionInfo, node: ast.AST,
                   types: Dict[str, str]) -> Optional[str]:
        """Project class an expression evaluates to, or None."""
        if isinstance(node, ast.Name):
            if node.id == "self" and info.cls:
                return info.cls
            return types.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._expr_type(info, node.value, types)
            if base is not None:
                return self._attr_type_on(base, node.attr)
            return None
        if isinstance(node, ast.Call):
            return self._constructed_class(node)
        if isinstance(node, ast.IfExp):
            # ``x = (Telemetry(...) if enabled else None)``: either branch
            # may flow; take whichever resolves (over-approximate).
            return (self._expr_type(info, node.body, types)
                    or self._expr_type(info, node.orelse, types))
        return None

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------

    def _resolve_calls(self, info: FunctionInfo) -> Set[str]:
        targets: Set[str] = set()
        types = self._local_types(info)
        aliases = self._local_aliases(info, types)
        for call in self._own_calls(info):
            targets.update(self._targets_of(info, call.func, aliases, types))
        return targets

    @staticmethod
    def _own_calls(info: FunctionInfo) -> Iterator[ast.Call]:
        """Call nodes of this function, nested defs excluded (they have
        their own entry in the graph; their bodies run when *called*)."""
        nested = {child for child in ast.walk(info.node)
                  if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and child is not info.node}
        skip: Set[int] = set()
        for fn in nested:
            for sub in ast.walk(fn):
                skip.add(id(sub))
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call) and id(node) not in skip:
                yield node

    def _local_aliases(self, info: FunctionInfo,
                       types: Dict[str, str]) -> Dict[str, Set[str]]:
        """Local name -> bound-callable targets (qualnames or bare names).

        Tracks the engine's locals-bound dispatch idiom
        (``execute = executor.execute``, possibly through a conditional
        expression) and references to nested ``def``s.  When the receiver's
        class is known the method resolves to an exact qualname; otherwise
        the bare attribute name is kept for the by-name fallback.
        """
        aliases: Dict[str, Set[str]] = {}
        for child in info.node.body:
            for node in ast.walk(child):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{info.qualname}.{node.name}"
                    if qual in self.functions:
                        aliases.setdefault(node.name, set()).add(qual)
                if not isinstance(node, ast.Assign):
                    continue
                names = self._bound_targets(info, node.value, types)
                if not names:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases.setdefault(target.id, set()).update(names)
                    elif isinstance(target, ast.Tuple):
                        # ``a, b = x.f, x.g``: any name may bind any value —
                        # over-approximate rather than track positions.
                        for elt in target.elts:
                            if isinstance(elt, ast.Name):
                                aliases.setdefault(elt.id, set()).update(names)
        return aliases

    def _bound_targets(self, info: FunctionInfo, value: ast.AST,
                       types: Dict[str, str]) -> Set[str]:
        """Targets a bound-callable assignment may refer to.

        Exact qualnames when the receiver type resolves; bare method names
        (for the by-name fallback) when it does not.
        """
        if isinstance(value, ast.Attribute):
            recv = self._expr_type(info, value.value, types)
            if recv is not None:
                resolved = self._method_on(recv, value.attr)
                if resolved is not None:
                    return {resolved.qualname}
            return {value.attr}
        if isinstance(value, ast.IfExp):
            return (self._bound_targets(info, value.body, types)
                    | self._bound_targets(info, value.orelse, types))
        if isinstance(value, ast.Tuple):
            names: Set[str] = set()
            for elt in value.elts:
                names.update(self._bound_targets(info, elt, types))
            return names
        return set()

    def _targets_of(self, info: FunctionInfo, func: ast.AST,
                    aliases: Dict[str, Set[str]],
                    types: Dict[str, str]) -> Set[str]:
        if isinstance(func, ast.Name):
            return self._targets_of_name(info, func.id, aliases)
        if isinstance(func, ast.Attribute):
            return self._targets_of_attr(info, func, types)
        return set()

    def _targets_of_name(self, info: FunctionInfo, name: str,
                         aliases: Dict[str, Set[str]]) -> Set[str]:
        if name in aliases:
            targets: Set[str] = set()
            for bound in aliases[name]:
                if bound in self.functions:   # nested def, already qualified
                    targets.add(bound)
                else:                          # bound method: by-name fallback
                    targets.update(self._by_name(bound))
            return targets
        if name in self.class_defs:            # Class(...) -> Class.__init__
            defs = self.class_defs[name]
            # Colliding class names resolve to the caller's own module's
            # definition when it has one (the cross-module case keeps all).
            same = [c for c in defs if c.module is info.module]
            inits = {c.methods["__init__"].qualname for c in (same or defs)
                     if "__init__" in c.methods}
            return inits
        # Same-module function first, else any module-level def of that name
        # (cross-module import; the tree has no name collisions that matter).
        same = [f.qualname for f in self.by_name.get(name, ())
                if f.module is info.module and f.cls is None]
        if same:
            return set(same)
        return {f.qualname for f in self.by_name.get(name, ())
                if f.cls is None and "." not in f.qualname.split(":")[1]}

    def _targets_of_attr(self, info: FunctionInfo, func: ast.Attribute,
                         types: Dict[str, str]) -> Set[str]:
        method = func.attr
        receiver = func.value
        # self.m(...): the enclosing class's own method (or inherited name).
        if isinstance(receiver, ast.Name) and receiver.id == "self" and info.cls:
            resolved = self._method_on(info.cls, method)
            if resolved is not None:
                return {resolved.qualname}
        # Typed receiver: any expression whose class the local type
        # environment resolves (``machine.executor.fence(...)``, a typed
        # parameter, a constructed local, ...).
        recv_type = self._expr_type(info, receiver, types)
        if recv_type is not None:
            resolved = self._method_on(recv_type, method)
            if resolved is not None:
                return {resolved.qualname}
        if method in _FALLBACK_BLOCKLIST:
            return set()
        # Untyped attribute dispatch can only land on a *method* — nested
        # closure defs that happen to share the name are not reachable
        # through an object attribute here and would wire unrelated
        # subsystems together.
        return {f.qualname for f in self.by_name.get(method, ())
                if f.cls is not None}

    def _attr_type_on(self, cls: str, attr: str) -> Optional[str]:
        seen: Set[str] = set()
        queue = [cls]
        while queue:
            current = queue.pop()
            if current in seen:
                continue
            seen.add(current)
            hit = self.attr_types.get((current, attr))
            if hit is not None:
                return hit
            queue.extend(self.classes[current].bases
                         if current in self.classes else ())
        return None

    def _method_on(self, cls: str, method: str) -> Optional[FunctionInfo]:
        """``cls``'s method, following base-class names (MRO-ish, by name)."""
        seen: Set[str] = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            hit = self.classes[current].methods.get(method)
            if hit is not None:
                return hit
            queue.extend(self.classes[current].bases)
        return None

    def _by_name(self, name: str) -> Set[str]:
        return {f.qualname for f in self.by_name.get(name, ())}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def derived(self, factory: Callable[["ProjectModel"], T]) -> T:
        """``factory(self)``, computed on first use and shared by every pass
        that asks (the hot set, the RCE families' worker-slice context)."""
        if factory not in self._derived:
            self._derived[factory] = factory(self)
        return self._derived[factory]  # type: ignore[return-value]

    def find_function(self, qual_suffix: str) -> Optional[FunctionInfo]:
        """The function whose qualname ends with ``qual_suffix``
        (e.g. ``system.py:System._run_trace``)."""
        for qualname, info in self.functions.items():
            if qualname.endswith(qual_suffix):
                return info
        return None

    def reachable_from(self, roots: Sequence[str]) -> Set[str]:
        """Transitive closure of the call graph from ``roots`` (qualnames)."""
        seen: Set[str] = set()
        queue = [r for r in roots if r in self.functions]
        while queue:
            current = queue.pop()
            if current in seen:
                continue
            seen.add(current)
            queue.extend(self.edges.get(current, ()))
        return seen

    def while_loop_nodes(self, info: FunctionInfo) -> List[ast.AST]:
        """Nodes lexically inside any ``while`` loop of ``info``, each once.

        This is the hot-path extractor: the engines' inner loops are
        ``while heap:`` / ``while True:``, and once-per-run work
        (``for core in cores: core.drain()``, ``_collect``) sits outside
        every ``while`` and is deliberately not included.
        """
        seen: Set[int] = set()
        nodes: List[ast.AST] = []
        for loop in ast.walk(info.node):
            if isinstance(loop, ast.While):
                for node in ast.walk(loop):
                    if id(node) not in seen:
                        seen.add(id(node))
                        nodes.append(node)
        return nodes

    def loop_call_targets(self, info: FunctionInfo) -> Set[str]:
        """Resolved targets of the calls inside ``info``'s while loops."""
        types = self._local_types(info)
        aliases = self._local_aliases(info, types)
        targets: Set[str] = set()
        for node in self.while_loop_nodes(info):
            if isinstance(node, ast.Call):
                targets.update(
                    self._targets_of(info, node.func, aliases, types))
        return targets


def dataclass_fields(cls_node: ast.ClassDef) -> List[str]:
    """Field names of a dataclass body (annotated, non-ClassVar)."""
    fields: List[str] = []
    for stmt in cls_node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        if not isinstance(stmt.target, ast.Name):
            continue
        annotation = dotted_name(stmt.annotation) or ""
        if "ClassVar" in annotation:
            continue
        fields.append(stmt.target.id)
    return fields
