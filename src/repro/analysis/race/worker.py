"""Worker-slice discovery plus RCE005–RCE007: fork/worker hygiene.

The *worker slice* is the call-graph closure of every function shipped to a
process pool — the code that executes inside forked/spawned workers, where
parent-side module state is a stale copy (fork) or freshly re-imported
(spawn).  Discovery is structural: any ``<pool>.submit(fn, ...)`` call
whose receiver was bound from a ``ProcessPoolExecutor``/``Pool``
construction (or is conventionally named ``pool``) roots the slice at
``fn``; :meth:`~repro.analysis.flow.model.ProjectModel.reachable_from`
provides the closure.  The context is built once per model, on first use
(:meth:`~repro.analysis.flow.model.ProjectModel.derived`), so a run that
selects no payload or worker rule never pays for it.

On that slice:

* **RCE005** — mutation of module-global mutable state (``global``
  statements, subscript stores, augmented assigns, or mutator-method calls
  on module-level dict/list/set bindings).  Under fork each worker mutates
  its own copy and the parent never sees it; under spawn the state resets
  per worker — either way the "shared" state is a silent lie.
* **RCE006** — environment reads of variables not pinned by
  ``BenchSettings`` (the ``RunRequest.resolve()`` snapshot).  A resolved
  request must fully describe its run; a worker-side ``os.environ`` read
  reintroduces shell dependence after resolution already happened.
* **RCE007** — global-RNG calls (``random.*``, ``np.random.*``) anywhere
  outside the sanctioned ``util/rng.py`` seeding path.  This one is
  tree-wide, not slice-scoped: unseeded RNG breaks bit-replay everywhere,
  and on the frontier it additionally diverges across workers.
"""

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.analysis.source import Violation, dotted_name, terminal_identifier
from repro.analysis.flow.model import FunctionInfo, ProjectModel

__all__ = [
    "RaceContext",
    "build_context",
    "module_mutables",
    "pinned_env",
    "run_worker_pass",
]

#: Process-pool constructors whose bound names root submit detection.
_POOL_CLASSES = ("ProcessPoolExecutor", "Pool")
#: Receiver names treated as pools even without a visible construction.
_POOL_RECEIVERS = ("pool",)

#: Module-level constructor calls that produce mutable containers.
_MUTABLE_CALLS = frozenset({
    "dict", "list", "set", "defaultdict", "deque", "OrderedDict", "Counter",
})

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "add", "update", "setdefault", "insert", "remove",
    "discard", "clear", "pop", "popitem", "appendleft",
})

#: The settings class whose env-var literals form the pinned set.
_SETTINGS_CLASS = "BenchSettings"
#: The sanctioned RNG module (rel suffix): the only place global RNG state
#: may be touched, because it is where seeding happens.
_RNG_MODULE = "util/rng.py"


@dataclass
class RaceContext:
    """Everything the payload and worker passes share for one analyzed tree."""

    model: ProjectModel
    #: (enclosing function, ``pool.submit(...)`` call) pairs.
    submits: List[Tuple[FunctionInfo, ast.Call]] = field(default_factory=list)
    #: Worker entry qualnames (first args of submit calls).
    entries: Tuple[str, ...] = ()
    #: Call-graph closure of the entries: the worker-side slice.
    worker_slice: Set[str] = field(default_factory=set)
    #: Env-var names pinned by the settings snapshot.
    pinned: Set[str] = field(default_factory=set)


def build_context(model: ProjectModel) -> RaceContext:
    submits = _submit_calls(model)
    entries = _worker_entries(model, submits)
    worker_slice = model.reachable_from(list(entries))
    worker_slice.update(q for q in entries if q in model.functions)
    return RaceContext(model=model, submits=submits, entries=entries,
                       worker_slice=worker_slice, pinned=pinned_env(model))


def _submit_calls(model: ProjectModel) -> List[Tuple[FunctionInfo, ast.Call]]:
    """Every ``<pool>.submit(...)`` call, with its enclosing function."""
    out: List[Tuple[FunctionInfo, ast.Call]] = []
    for qualname in sorted(model.functions):
        info = model.functions[qualname]
        pool_names = set(_POOL_RECEIVERS)
        for node in ast.walk(info.node):
            if isinstance(node, ast.With):
                for item in node.items:
                    if (_is_pool_ctor(item.context_expr)
                            and isinstance(item.optional_vars, ast.Name)):
                        pool_names.add(item.optional_vars.id)
            elif isinstance(node, ast.Assign) and _is_pool_ctor(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        pool_names.add(target.id)
        for node in ast.walk(info.node):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "submit"
                    and terminal_identifier(node.func.value) in pool_names):
                out.append((info, node))
    return out


def _is_pool_ctor(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and terminal_identifier(node.func) in _POOL_CLASSES)


def _worker_entries(model: ProjectModel,
                    submits: List[Tuple[FunctionInfo, ast.Call]],
                    ) -> Tuple[str, ...]:
    """Qualnames of the functions handed to ``pool.submit`` as targets."""
    entries: Set[str] = set()
    for info, call in submits:
        if not call.args or not isinstance(call.args[0], ast.Name):
            continue
        name = call.args[0].id
        same = f"{info.module.rel}:{name}"
        if same in model.functions:
            entries.add(same)
            continue
        for candidate in model.by_name.get(name, ()):
            if candidate.cls is None:
                entries.add(candidate.qualname)
    return tuple(sorted(entries))


def pinned_env(model: ProjectModel) -> Set[str]:
    """Env-var names the settings snapshot reads (uppercase literals in
    ``BenchSettings``'s body — its default factories are the single
    sanctioned read site; ``RunRequest.resolve()`` freezes the result)."""
    cls = model.classes.get(_SETTINGS_CLASS)
    if cls is None:
        return set()
    pinned: Set[str] = set()
    for node in ast.walk(cls.node):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value.isupper() and "_" in node.value):
            pinned.add(node.value)
    return pinned


def module_mutables(module) -> Set[str]:
    """Module-level names bound to mutable containers."""
    names: Set[str] = set()
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign):
            targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
            value = stmt.value
        elif (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        if value is None or not targets:
            continue
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            names.update(t.id for t in targets)
        elif (isinstance(value, ast.Call)
                and terminal_identifier(value.func) in _MUTABLE_CALLS):
            names.update(t.id for t in targets)
    return names


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------


def run_worker_pass(model: ProjectModel) -> List[Violation]:
    ctx = model.derived(build_context)
    findings: List[Violation] = []
    for qualname in sorted(ctx.worker_slice):
        info = model.functions[qualname]
        findings.extend(_check_global_mutation(info))
        findings.extend(_check_env_reads(info, ctx.pinned))
    findings.extend(_check_global_rng(model))
    return findings


def _local_names(func: ast.AST) -> Set[str]:
    """Names the function binds itself (params + plain-Name assigns)."""
    names: Set[str] = set()
    args = func.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        names.add(arg.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
    return names


def _check_global_mutation(info: FunctionInfo) -> List[Violation]:
    mutables = module_mutables(info.module)
    locals_ = _local_names(info.node)
    out: List[Violation] = []

    def _hit(node: ast.AST, name: str, how: str) -> None:
        out.append(Violation(
            code="RCE005", path=str(info.module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=(f"worker-side code {how} module-global `{name}` — "
                     f"under fork each worker mutates a private copy and "
                     f"the parent never sees it; pass state through the "
                     f"payload and return it in the envelope")))

    for node in ast.walk(info.node):
        if isinstance(node, ast.Global):
            for name in node.names:
                _hit(node, name, "rebinds (via `global`)")
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in mutables
                        and target.value.id not in locals_):
                    _hit(node, target.value.id, "writes into")
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in mutables
                and node.func.value.id not in locals_):
            _hit(node, node.func.value.id, f"calls .{node.func.attr}() on")
    return out


def _env_read(node: ast.AST) -> bool:
    """Shares the env-read shapes with simflow's FLW007 detection."""
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func) or ""
        return (dotted.endswith("os.getenv") or dotted == "getenv"
                or f".{dotted}.".find(".environ.") >= 0
                or dotted.endswith("environ.get"))
    if isinstance(node, ast.Subscript):
        return (isinstance(node.value, ast.Attribute)
                and node.value.attr == "environ")
    return False


def _env_var_name(node: ast.AST) -> str:
    """The variable a read targets, or a placeholder when dynamic."""
    key = None
    if isinstance(node, ast.Call) and node.args:
        key = node.args[0]
    elif isinstance(node, ast.Subscript):
        key = node.slice
    if isinstance(key, ast.Constant) and isinstance(key.value, str):
        return key.value
    return "<dynamic>"


def _check_env_reads(info: FunctionInfo, pinned: Set[str]) -> List[Violation]:
    out: List[Violation] = []
    for node in ast.walk(info.node):
        if not _env_read(node):
            continue
        var = _env_var_name(node)
        if var in pinned:
            continue
        out.append(Violation(
            code="RCE006", path=str(info.module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=(f"worker-side read of env var `{var}` not pinned by "
                     f"the BenchSettings snapshot — the resolved request no "
                     f"longer fully describes the run; resolve it into the "
                     f"request before dispatch")))
    return out


def _check_global_rng(model: ProjectModel) -> List[Violation]:
    out: List[Violation] = []
    for module in model.project.modules:
        if module.rel.endswith(_RNG_MODULE):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            # `random` in module position: random.random(), np.random.seed()
            # — but not rng.random() on a seeded Generator instance.
            if "random" not in parts[:-1]:
                continue
            out.append(Violation(
                code="RCE007", path=str(module.path),
                line=node.lineno, col=node.col_offset,
                message=(f"global RNG call `{dotted}(...)` off the seeded "
                         f"path — process-global RNG state diverges across "
                         f"workers and runs; derive a generator via "
                         f"repro.util.rng.make_rng/derive_seed")))
    return out
