"""Whole-program call graph for cross-module simlint rules.

PR 1's rules are strictly per-file: a scheduler that reaches wall-clock
or the global RNG *through a helper module* passes clean, and nothing
can see that ``choose_next_*`` calls a helper that mutates engine-owned
job state three frames down.  This module closes that gap with a cheap,
deliberately over-approximate call graph:

* every linted module is indexed once (functions, classes and their
  bases, import aliases);
* calls are resolved where the resolution is unambiguous — ``self.m()``
  against the enclosing class and its project-local bases, bare names
  against module-level functions and ``from X import f`` aliases, and
  ``mod.func()`` through ``import`` aliases (absolute *and* relative);
* function *references* passed as call arguments (``min(q, key=
  self._priority)``) count as call edges, since the consumer will
  invoke them;
* unresolvable calls (builtins, third-party code, dynamic dispatch)
  contribute no edges — the analysis never guesses.

On top of the graph, four **taint closures** propagate "this function
transitively reaches a sink" facts caller-ward:

``wallclock``   host-clock reads (:data:`~repro.analysis.visitor.WALLCLOCK_CALLS`)
``rng``         global/unseeded RNG draws (the DET002 sink set)
``mutation``    writes to engine-owned ``Job`` attributes on non-self objects
``raise``       ``raise`` statements of non-exempt exception classes

Sinks on lines carrying an audited ``# simlint: disable=...`` directive,
and sinks in timing-whitelisted modules (``repro.core.walltime``,
``benchmarks/``), are *sanctioned* and seed no taint — the audit at the
sink covers every caller.  Each tainted function remembers one forward
step toward its sink, so rules can print the full witness chain
(``helpers.jitter -> random.random()``) at the offending call site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .config import LintConfig
from .visitor import WALLCLOCK_CALLS, parse_suppressions

__all__ = [
    "CallGraph",
    "FuncNode",
    "Sink",
    "TaintKind",
    "ENGINE_OWNED_JOB_ATTRS",
    "RAISE_EXEMPT",
    "build_callgraph",
    "module_name_for_path",
    "rng_sink_name",
]

#: ``Job`` attributes owned by the engine's bookkeeping.  A helper that
#: writes one of these on a non-``self`` object is a mutation sink for
#: SIM004 (``wanted_*_slots`` excepted: the sanctioned per-job knobs a
#: policy sets from ``on_job_arrival``; SIM002 covers direct writes from
#: ``choose_next_*`` itself).
ENGINE_OWNED_JOB_ATTRS = frozenset({
    "state", "start_time", "completion_time",
    "maps_dispatched", "maps_completed",
    "reduces_dispatched", "reduces_completed",
    "map_stage_end", "map_records", "reduce_records",
    "sched_key", "in_map_heap", "in_reduce_heap",
    "next_map_index", "next_reduce_index",
    "requeued_maps", "requeued_reduces", "reduce_gate",
})

#: Exception classes whose ``raise`` does not make an entry point
#: "can raise on valid traces": NotImplementedError marks abstract
#: members, AssertionError marks internal invariants.
RAISE_EXEMPT = frozenset({"NotImplementedError", "AssertionError"})

#: The taint kinds the graph propagates.
TaintKind = str
_KINDS: tuple[TaintKind, ...] = ("wallclock", "rng", "mutation", "raise")

#: Rule ids whose line-suppression sanctions a sink of the given kind.
_SANCTIONING_IDS: dict[TaintKind, frozenset[str]] = {
    "wallclock": frozenset({"DET001", "DET004", "all"}),
    "rng": frozenset({"DET002", "DET004", "all"}),
    "mutation": frozenset({"SIM002", "SIM004", "all"}),
    "raise": frozenset({"API002", "all"}),
}

_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "pop", "remove", "clear", "add",
    "discard", "update", "setdefault", "popitem", "sort", "reverse",
})


def module_name_for_path(path: str) -> str:
    """Dotted module name for a display path (``src/`` prefix stripped)."""
    posix = path.replace("\\", "/")
    if posix.endswith(".py"):
        posix = posix[:-3]
    if posix.endswith("/__init__"):
        posix = posix[: -len("/__init__")]
    parts = [p for p in posix.split("/") if p not in ("", ".", "..")]
    if parts and parts[0] == "src":
        parts = parts[1:]
    return ".".join(parts) or posix or "<module>"


def rng_sink_name(dotted: str, node: ast.Call) -> Optional[str]:
    """Describe ``node`` as a global/unseeded RNG draw, or None.

    The sink set mirrors DET002 exactly so the per-file and transitive
    rules agree on what nondeterminism *is*.
    """
    if dotted in ("random.Random", "numpy.random.Generator"):
        if node.args or node.keywords:
            return None
        return f"{dotted}() without a seed"
    if dotted.startswith("random."):
        return f"{dotted}() (stdlib global RNG)"
    if dotted.startswith("numpy.random."):
        member = dotted[len("numpy.random."):]
        if member == "default_rng":
            seeded = bool(node.keywords) or (
                bool(node.args)
                and not (
                    isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                )
            )
            return None if seeded else "np.random.default_rng() without a seed"
        if member[:1].islower():
            return f"np.random.{member}() (legacy global state)"
    return None


@dataclass
class Sink:
    """One direct sink inside a function body."""

    kind: TaintKind
    lineno: int
    detail: str  # e.g. "time.monotonic()" / "job.maps_dispatched" / "ValueError"


@dataclass
class FuncNode:
    """One function (or method) in the indexed project."""

    module: str
    path: str
    qname: str  # "func" or "Class.method"
    lineno: int
    #: The function's AST — kept so the CFG/dataflow layer can analyze
    #: bodies without re-parsing (one parse feeds every pass).
    node: "Optional[ast.FunctionDef | ast.AsyncFunctionDef]" = None
    #: Enclosing class name for methods, None for module-level functions.
    cls_name: Optional[str] = None
    sinks: list[Sink] = field(default_factory=list)
    #: Unresolved call references: (descriptor, call-site node).
    #: Descriptors: ("self", cls, attr) | ("name", name) | ("dotted", dotted)
    refs: list[tuple[tuple, ast.AST]] = field(default_factory=list)
    callees: list["FuncNode"] = field(default_factory=list)
    #: Per-kind forward step toward the sink: either ("sink", Sink) or
    #: ("call", FuncNode).  Absent key = not tainted.  Populated by
    #: :meth:`CallGraph._propagate` during finalize().
    taint: dict[TaintKind, tuple] = field(default_factory=dict)

    @property
    def display(self) -> str:
        """Short human name: last module component + qualified name."""
        mod = self.module.rsplit(".", 1)[-1]
        return f"{mod}.{self.qname}"


@dataclass
class _ClassIdx:
    methods: dict[str, FuncNode] = field(default_factory=dict)
    #: Base-class references as (descriptor) resolvable against the index.
    base_refs: list[str] = field(default_factory=list)


@dataclass
class _ModuleIdx:
    name: str
    path: str
    aliases: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FuncNode] = field(default_factory=dict)
    classes: dict[str, _ClassIdx] = field(default_factory=dict)


def _relative_target(module: str, is_package: bool, level: int, name: Optional[str]) -> Optional[str]:
    """Resolve a ``from ..x import y`` module target to a dotted name."""
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop > len(parts):
        return None
    if drop:
        parts = parts[:-drop]
    if name:
        parts = parts + name.split(".")
    return ".".join(parts) if parts else None


class _FunctionScanner(ast.NodeVisitor):
    """Collect sinks and call references from one function body.

    Nested functions and lambdas are merged into the enclosing function:
    their sinks and calls are attributed to the parent, a conservative
    closure-semantics approximation.
    """

    def __init__(self, graph: "CallGraph", mod: _ModuleIdx, fn: FuncNode,
                 cls_name: Optional[str]) -> None:
        self.graph = graph
        self.mod = mod
        self.fn = fn
        self.cls_name = cls_name

    # -- helpers ------------------------------------------------------- #

    def _dotted(self, node: ast.AST) -> Optional[str]:
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.mod.aliases.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))

    def _sanctioned(self, kind: TaintKind, lineno: int) -> bool:
        disabled = self.graph._suppressions.get(self.mod.path, {}).get(lineno, ())
        return bool(_SANCTIONING_IDS[kind] & set(disabled))

    def _add_sink(self, kind: TaintKind, lineno: int, detail: str) -> None:
        if self._sanctioned(kind, lineno):
            return
        if kind == "wallclock" and self.graph._whitelisted.get(self.mod.path, False):
            return
        if kind == "rng" and self.graph._testpath.get(self.mod.path, False):
            return
        self.fn.sinks.append(Sink(kind, lineno, detail))

    def _add_ref(self, node: ast.AST, ref_site: ast.AST) -> None:
        """Record ``node`` (a callee expression) as a call reference."""
        if isinstance(node, ast.Name):
            dotted = self.mod.aliases.get(node.id)
            if dotted is not None:
                self.fn.refs.append((("dotted", dotted), ref_site))
            else:
                self.fn.refs.append((("name", node.id), ref_site))
        elif isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and self.cls_name is not None
            ):
                self.fn.refs.append((("self", self.cls_name, node.attr), ref_site))
            else:
                dotted = self._dotted(node)
                if dotted is not None:
                    self.fn.refs.append((("dotted", dotted), ref_site))

    # -- visits -------------------------------------------------------- #

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._dotted(node.func)
        if dotted is not None:
            if dotted in WALLCLOCK_CALLS:
                self._add_sink("wallclock", node.lineno, f"{dotted}()")
            rng = rng_sink_name(dotted, node)
            if rng is not None:
                self._add_sink("rng", node.lineno, rng)
        self._add_ref(node.func, node)
        # Function references handed to a consumer (min(q, key=f), map(f, ...))
        # count as calls: the consumer invokes them.
        for arg in [*node.args, *(kw.value for kw in node.keywords)]:
            if isinstance(arg, (ast.Name, ast.Attribute)):
                self._add_ref(arg, node)
        # Mutator-method call on an engine-owned attribute of a non-self
        # object (job.requeued_maps.append(...)).
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATOR_METHODS
            and isinstance(func.value, ast.Attribute)
            and func.value.attr in ENGINE_OWNED_JOB_ATTRS
        ):
            root = func.value.value
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if isinstance(root, ast.Name) and root.id not in ("self", "cls"):
                self._add_sink(
                    "mutation", node.lineno,
                    f"{root.id}.{func.value.attr}.{func.attr}()",
                )
        self.generic_visit(node)

    def _mutation_target(self, target: ast.AST) -> None:
        if not isinstance(target, ast.Attribute):
            return
        if target.attr not in ENGINE_OWNED_JOB_ATTRS:
            return
        root: ast.AST = target.value
        while isinstance(root, (ast.Attribute, ast.Subscript)):
            root = root.value
        if isinstance(root, ast.Name) and root.id not in ("self", "cls"):
            self._add_sink(
                "mutation", target.lineno, f"{root.id}.{target.attr}"
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._mutation_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._mutation_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._mutation_target(node.target)
        self.generic_visit(node)

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        name: Optional[str] = None
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name):
            name = exc.id
        elif isinstance(exc, ast.Attribute):
            name = exc.attr
        # Bare ``raise`` (re-raise inside except) introduces nothing new.
        if name is not None and name not in RAISE_EXEMPT:
            self._add_sink("raise", node.lineno, name)
        self.generic_visit(node)

    # Nested defs merge into the parent (closure approximation).
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.generic_visit(node)


class CallGraph:
    """Project-wide index + call edges + taint closures.

    Build with :meth:`add_module` per file, then :meth:`finalize` once;
    rules query :meth:`callees_at` and :meth:`witness` afterwards.
    """

    def __init__(self, config: LintConfig) -> None:
        self.config = config
        self._modules: dict[str, _ModuleIdx] = {}
        self._suppressions: dict[str, dict[int, set[str]]] = {}
        self._whitelisted: dict[str, bool] = {}
        self._testpath: dict[str, bool] = {}
        #: id(call-site AST node) -> resolved project callees.
        self._callsites: dict[int, list[FuncNode]] = {}
        self._finalized = False

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def add_module(
        self,
        path: str,
        tree: ast.Module,
        source: str,
        suppressions: Optional[dict[int, set[str]]] = None,
    ) -> None:
        """Index one parsed module (``path`` is the display path).

        ``suppressions`` lets the runner share one parsed-directive map
        per file instead of re-scanning the source here.
        """
        name = module_name_for_path(path)
        mod = _ModuleIdx(name=name, path=path)
        self._modules[name] = mod
        self._suppressions[path] = (
            suppressions if suppressions is not None else parse_suppressions(source)
        )
        self._whitelisted[path] = self.config.is_timing_whitelisted(path)
        self._testpath[path] = self.config.is_test_path(path)
        is_package = path.replace("\\", "/").endswith("__init__.py")

        for stmt in tree.body:
            self._index_stmt(mod, stmt, is_package)

    def _index_stmt(self, mod: _ModuleIdx, stmt: ast.stmt, is_package: bool) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                mod.aliases[local] = alias.name if alias.asname else alias.name.split(".", 1)[0]
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.level:
                target = _relative_target(mod.name, is_package, stmt.level, stmt.module)
                if target is None:
                    return
            else:
                target = stmt.module
                if target is None:
                    return
            for alias in stmt.names:
                local = alias.asname or alias.name
                mod.aliases[local] = f"{target}.{alias.name}"
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._index_function(mod, stmt, cls=None)
        elif isinstance(stmt, ast.ClassDef):
            cls = _ClassIdx()
            for base in stmt.bases:
                if isinstance(base, ast.Name):
                    cls.base_refs.append(mod.aliases.get(base.id, base.id))
                elif isinstance(base, ast.Attribute):
                    dotted = _attr_dotted(base, mod.aliases)
                    if dotted is not None:
                        cls.base_refs.append(dotted)
            mod.classes[stmt.name] = cls
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._index_function(mod, member, cls=stmt.name)

    def _index_function(
        self,
        mod: _ModuleIdx,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        cls: Optional[str],
    ) -> None:
        qname = f"{cls}.{node.name}" if cls else node.name
        fn = FuncNode(
            module=mod.name, path=mod.path, qname=qname, lineno=node.lineno,
            node=node, cls_name=cls,
        )
        if cls is None:
            mod.functions[qname] = fn
        else:
            mod.classes[cls].methods[node.name] = fn
            mod.functions[qname] = fn
        scanner = _FunctionScanner(self, mod, fn, cls)
        for stmt in node.body:
            scanner.visit(stmt)

    # ------------------------------------------------------------------ #
    # resolution
    # ------------------------------------------------------------------ #

    def _resolve_module(self, name: str) -> Optional[_ModuleIdx]:
        mod = self._modules.get(name)
        if mod is not None:
            return mod
        # Unique dotted-suffix match: ``helpers`` finds
        # ``tests.fixtures.xmod.helpers`` when unambiguous.
        suffix = "." + name
        hits = [m for key, m in self._modules.items() if key.endswith(suffix)]
        return hits[0] if len(hits) == 1 else None

    def _resolve_class(self, mod: _ModuleIdx, name: str,
                       seen: Optional[set] = None) -> "Optional[tuple[_ModuleIdx, _ClassIdx]]":
        """Find class ``name`` starting from ``mod`` (aliases included)."""
        if seen is None:
            seen = set()
        key = (mod.name, name)
        if key in seen:
            return None
        seen.add(key)
        cls = mod.classes.get(name)
        if cls is not None:
            return mod, cls
        dotted = mod.aliases.get(name)
        if dotted is not None and "." in dotted:
            owner, _, attr = dotted.rpartition(".")
            target = self._resolve_module(owner)
            if target is not None and attr in target.classes:
                return target, target.classes[attr]
        return None

    def _method_in_hierarchy(self, mod: _ModuleIdx, cls_name: str,
                             method: str, depth: int = 0) -> Optional[FuncNode]:
        if depth > 8:
            return None
        found = self._resolve_class(mod, cls_name)
        if found is None:
            return None
        owner_mod, cls = found
        fn = cls.methods.get(method)
        if fn is not None:
            return fn
        for base in cls.base_refs:
            base_name = base.rpartition(".")[2]
            fn = self._method_in_hierarchy(owner_mod, base_name, method, depth + 1)
            if fn is not None:
                return fn
        return None

    def _resolve_dotted_func(self, dotted: str) -> Optional[FuncNode]:
        """``a.b.mod.func`` / ``mod.Class.method`` -> FuncNode."""
        # Longest module prefix wins; the remainder is the qualified name.
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = self._resolve_module(".".join(parts[:cut]))
            if mod is None:
                continue
            qname = ".".join(parts[cut:])
            fn = mod.functions.get(qname)
            if fn is not None:
                return fn
            # ``mod.Class`` referenced bare: constructor -> __init__.
            cls = mod.classes.get(qname)
            if cls is not None:
                return cls.methods.get("__init__")
            return None
        return None

    def _resolve_ref(self, mod: _ModuleIdx, ref: tuple) -> Optional[FuncNode]:
        tag = ref[0]
        if tag == "name":
            fn = mod.functions.get(ref[1])
            if fn is not None:
                return fn
            cls = mod.classes.get(ref[1])
            if cls is not None:
                return cls.methods.get("__init__")
            return None
        if tag == "dotted":
            return self._resolve_dotted_func(ref[1])
        if tag == "self":
            _, cls_name, attr = ref
            return self._method_in_hierarchy(mod, cls_name, attr)
        return None

    def finalize(self) -> None:
        """Resolve call references into edges and run the taint closures."""
        if self._finalized:
            return
        self._finalized = True
        for mod_name in sorted(self._modules):
            mod = self._modules[mod_name]
            for qname in sorted(mod.functions):
                fn = mod.functions[qname]
                for ref, site in fn.refs:
                    callee = self._resolve_ref(mod, ref)
                    if callee is None or callee is fn:
                        continue
                    fn.callees.append(callee)
                    self._callsites.setdefault(id(site), []).append(callee)
        self._propagate()

    def _propagate(self) -> None:
        """Reverse-BFS each taint kind from its sinks to all callers.

        The frontier starts from the sinking functions in
        :meth:`iter_functions` order and each caller keeps the first
        step that reaches it, so witness chains are shortest and
        deterministic.
        """
        functions = list(self.iter_functions())
        callers: dict[int, list[FuncNode]] = {}
        for fn in functions:
            for callee in fn.callees:
                callers.setdefault(id(callee), []).append(fn)
        for kind in _KINDS:
            frontier: list[FuncNode] = []
            for fn in functions:
                sink = next((s for s in fn.sinks if s.kind == kind), None)
                if sink is not None:
                    fn.taint[kind] = ("sink", sink)
                    frontier.append(fn)
            while frontier:
                nxt: list[FuncNode] = []
                for fn in frontier:
                    for caller in callers.get(id(fn), ()):
                        if kind not in caller.taint:
                            caller.taint[kind] = ("call", fn)
                            nxt.append(caller)
                frontier = nxt

    # ------------------------------------------------------------------ #
    # queries (used by rules)
    # ------------------------------------------------------------------ #

    def callees_at(self, site: ast.AST) -> list[FuncNode]:
        """Project functions a call-site node resolves to (possibly [])."""
        return self._callsites.get(id(site), [])

    def witness(self, fn: FuncNode, kind: TaintKind) -> "Optional[tuple[list[str], Sink]]":
        """Call chain from ``fn`` to its ``kind`` sink, or None.

        Returns ``(chain, sink)`` where ``chain`` is the display names
        from ``fn`` down to (and including) the sinking function.
        """
        step = fn.taint.get(kind)
        if step is None:
            return None
        chain = [fn.display]
        node = fn
        guard = 0
        while step[0] == "call":
            if guard >= 10_000:  # cycle guard; BFS chains are finite
                return None
            node = step[1]
            chain.append(node.display)
            step = node.taint.get(kind)
            if step is None:  # pragma: no cover - closure guarantees a path
                return None
            guard += 1
        if not isinstance(step[1], Sink):  # pragma: no cover - invariant
            return None
        return chain, step[1]

    def function(self, module: str, qname: str) -> Optional[FuncNode]:
        """Lookup helper for tests."""
        mod = self._modules.get(module)
        return mod.functions.get(qname) if mod else None

    # ------------------------------------------------------------------ #
    # shared-index access (the CFG/dataflow layer reuses this index
    # instead of re-parsing or re-scanning modules)
    # ------------------------------------------------------------------ #

    def iter_functions(self) -> "Iterable[FuncNode]":
        """Every indexed function, in deterministic module/qname order."""
        for mod_name in sorted(self._modules):
            mod = self._modules[mod_name]
            for qname in sorted(mod.functions):
                yield mod.functions[qname]

    def module_index(self, name: str) -> "Optional[_ModuleIdx]":
        """The per-module index (aliases, classes) built by add_module."""
        return self._modules.get(name)

    def iter_module_indexes(self) -> "Iterable[_ModuleIdx]":
        for name in sorted(self._modules):
            yield self._modules[name]

    def resolve_ref(self, module: str, ref: tuple) -> Optional[FuncNode]:
        """Resolve a callee descriptor against the project index.

        Descriptors are the same shape :class:`_FunctionScanner` records:
        ``("self", cls, attr)`` / ``("name", name)`` / ``("dotted", dotted)``.
        """
        mod = self._modules.get(module)
        if mod is None:
            return None
        return self._resolve_ref(mod, ref)


def _attr_dotted(node: ast.Attribute, aliases: dict[str, str]) -> Optional[str]:
    parts: list[str] = []
    cur: ast.AST = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    root = aliases.get(cur.id, cur.id)
    parts.append(root)
    return ".".join(reversed(parts))


def build_callgraph(
    config: LintConfig,
    modules: Iterable[tuple[str, ast.Module, str]],
) -> CallGraph:
    """Build + finalize a graph from ``(path, tree, source)`` triples."""
    graph = CallGraph(config)
    for path, tree, source in modules:
        graph.add_module(path, tree, source)
    graph.finalize()
    return graph
