"""Per-function effect and determinism inference.

The call graph's original taint pass answered four yes/no questions
(wall-clock, global RNG, engine-state mutation, escaping raise) with a
one-shot reverse BFS per kind.  Certification needs a richer answer —
*what may this function do, at all?* — so this module computes, per
function, a summary over the effect lattice

    pure < { reads-sim-state, mutates-self, mutates-global,
             io, nondeterministic-source, raises }

where ``pure`` is the empty summary and join is set union.  Summaries
are interprocedural: a function inherits every atom of every resolvable
callee.  The engine runs a fixpoint over the condensation of the call
graph (Tarjan SCCs in reverse topological order; members of a cycle
share one summary), then selects a forward witness step per atom with a
sink-rooted breadth-first layering — the *same* layering the legacy
taint closure used, so the witness chains the cross-module rules print
(and the xmod fixtures pin) are unchanged.

The legacy four kinds are back-filled into ``FuncNode.taint`` from
here; :meth:`CallGraph.finalize` delegates to :func:`infer_effects`, so
DET004/SIM004/API002 now ride on effect summaries instead of their own
ad-hoc closure.

Local effect sources beyond the legacy sinks:

* ``mutates-self`` — writes (or mutator-method calls) on ``self``;
* ``mutates-global`` — ``global`` declarations, mutator calls or
  subscript/attribute writes on module-level bindings, and ``next()``
  on a module-level iterator (which is *also* a nondeterministic
  source: the value observed depends on process-global call history —
  the ``diverging_scheduler`` fixture's trick);
* ``io`` — file/process/socket traffic (``open``/``print``, ``os.*``
  beyond ``os.path``, ``subprocess``, ``socket``, ...), whether called
  dotted (``subprocess.run(...)``) or through a ``from subprocess
  import run`` alias;
* ``reads-sim-state`` — attribute reads off ``self`` or a parameter
  (jobs, clusters, queues): the benign atom every scheduler has.

Unlike the lint rules, these sources honour no inline suppressions:
a certificate is a safety claim about code, not a style gate, and must
not be silenceable from inside the code under scrutiny.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .callgraph import _MUTATOR_METHODS, CallGraph, FuncNode, Sink

__all__ = [
    "EFFECT_ATOMS",
    "READS_SIM_STATE",
    "MUTATES_SELF",
    "MUTATES_GLOBAL",
    "IO",
    "NONDET",
    "RAISES",
    "EffectSummary",
    "infer_effects",
    "effect_witness",
]

READS_SIM_STATE = "reads-sim-state"
MUTATES_SELF = "mutates-self"
MUTATES_GLOBAL = "mutates-global"
IO = "io"
NONDET = "nondeterministic-source"
RAISES = "raises"

#: The lattice atoms, in report order ("pure" is their absence).
EFFECT_ATOMS: tuple[str, ...] = (
    READS_SIM_STATE, MUTATES_SELF, MUTATES_GLOBAL, IO, NONDET, RAISES,
)

#: Every kind the engine propagates: the four legacy taint kinds the
#: cross-module rules consume, plus the new lattice-only sources.
_ALL_KINDS: tuple[str, ...] = (
    "wallclock", "rng", "mutation", "raise",
    READS_SIM_STATE, MUTATES_SELF, MUTATES_GLOBAL, IO, NONDET,
)

#: Raw propagation kinds feeding each lattice atom, in witness-priority
#: order (a wall-clock read is a more recognisable nondeterminism
#: witness than a module-iterator draw).
_ATOM_SOURCES: dict[str, tuple[str, ...]] = {
    READS_SIM_STATE: (READS_SIM_STATE,),
    MUTATES_SELF: (MUTATES_SELF,),
    MUTATES_GLOBAL: (MUTATES_GLOBAL,),
    IO: (IO,),
    NONDET: ("wallclock", "rng", NONDET),
    RAISES: ("raise",),
}

#: Dotted-call prefixes that are I/O no matter the arguments.
_IO_DOTTED_PREFIXES = (
    "subprocess.", "socket.", "shutil.", "urllib.", "http.client.",
    "sys.stdout", "sys.stderr",
)

#: Builtins whose bare call is I/O (unless shadowed locally).
_IO_BUILTINS = frozenset({"open", "print", "input"})

#: Method names that read/write the filesystem on any receiver.
_IO_METHODS = frozenset({
    "write_text", "read_text", "write_bytes", "read_bytes",
})


@dataclass(frozen=True)
class EffectSummary:
    """One function's inferred effects (atoms + witness steps).

    ``atoms`` is the transitive lattice summary.  ``steps`` maps each
    *raw* propagation kind present to a forward step toward its origin:
    ``("sink", Sink)`` for a local source, ``("call", FuncNode)`` for
    a callee that carries it — the structure :func:`effect_witness`
    walks to rebuild the full chain.
    """

    atoms: frozenset[str] = frozenset()
    steps: "dict[str, tuple[str, object]]" = field(default_factory=dict)

    @property
    def pure(self) -> bool:
        return not self.atoms


def _bound_names(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> set[str]:
    """Names the function binds: parameters plus every Store target."""
    args = func.args
    names = {
        a.arg
        for a in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        )
    }
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _root_name(node: ast.AST) -> Optional[str]:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class _EffectScanner(ast.NodeVisitor):
    """Collect the lattice-only local effect sources of one function.

    Nested functions and lambdas merge into the enclosing function,
    matching the call graph's closure approximation.
    """

    def __init__(
        self,
        bound: set[str],
        params: set[str],
        aliases: dict[str, str],
        module_state: dict[str, int],
        module_callables: set[str],
        out: dict[str, Sink],
    ) -> None:
        self.bound = bound
        self.params = params
        self.aliases = aliases
        self.state = module_state
        self.module_callables = module_callables
        self.out = out

    @classmethod
    def for_function(
        cls,
        fn: FuncNode,
        aliases: dict[str, str],
        module_state: dict[str, int],
        module_callables: set[str],
        out: dict[str, Sink],
    ) -> "_EffectScanner":
        func = fn.node
        assert func is not None
        params = {
            a.arg for a in (*func.args.posonlyargs, *func.args.args,
                            *func.args.kwonlyargs)
        }
        params.discard("self")
        params.discard("cls")
        return cls(
            _bound_names(func), params, aliases, module_state,
            module_callables, out,
        )

    # -- helpers ------------------------------------------------------- #

    def _add(self, atom: str, lineno: int, detail: str) -> None:
        self.out.setdefault(atom, Sink(atom, lineno, detail))

    def _dotted(self, node: ast.AST) -> Optional[str]:
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))

    def _is_module_state(self, name: str) -> bool:
        return name in self.state and name not in self.bound

    def _dotted_call(self, dotted: str, lineno: int) -> None:
        """Effect checks shared by dotted and aliased-bare-name calls."""
        if dotted.startswith("os.") and not dotted.startswith("os.path."):
            self._add(IO, lineno, f"{dotted}()")
        elif dotted.startswith(_IO_DOTTED_PREFIXES):
            self._add(IO, lineno, f"{dotted}()")

    # -- visits -------------------------------------------------------- #

    def visit_Global(self, node: ast.Global) -> None:
        self._add(
            MUTATES_GLOBAL, node.lineno, f"global {', '.join(node.names)}"
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            root = node.value
            if isinstance(root, ast.Name):
                if root.id == "self":
                    self._add(
                        READS_SIM_STATE, node.lineno, f"self.{node.attr}"
                    )
                elif root.id in self.params:
                    self._add(
                        READS_SIM_STATE, node.lineno, f"{root.id}.{node.attr}"
                    )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # Bare-builtin I/O: open(...), print(...), input(...).
        if (
            isinstance(func, ast.Name)
            and func.id in _IO_BUILTINS
            and func.id not in self.bound
            and func.id not in self.module_callables
            and func.id not in self.aliases
        ):
            self._add(IO, node.lineno, f"{func.id}()")
        # next() on a module-level iterator: mutates process-global
        # state AND observes call history — the hidden-counter trick.
        if (
            isinstance(func, ast.Name)
            and func.id == "next"
            and func.id not in self.bound
            and node.args
            and isinstance(node.args[0], ast.Name)
            and self._is_module_state(node.args[0].id)
        ):
            detail = (
                f"next({node.args[0].id}) consumes the module-level "
                f"iterator {node.args[0].id!r}"
            )
            self._add(MUTATES_GLOBAL, node.lineno, detail)
            self._add(NONDET, node.lineno, detail)
        if isinstance(func, ast.Name):
            dotted = self.aliases.get(func.id)
            if dotted is not None:
                # ``from subprocess import run; run(...)`` — the alias
                # names a library function; apply the dotted checks.
                self._dotted_call(dotted, node.lineno)
        elif isinstance(func, ast.Attribute):
            # Dotted library I/O (os.*, subprocess.*, sockets, std streams).
            dotted = self._dotted(func)
            if dotted is not None:
                self._dotted_call(dotted, node.lineno)
            if func.attr in _IO_METHODS:
                self._add(IO, node.lineno, f".{func.attr}()")
            # Mutator-method calls: self.x.append(...) vs STATE.update(...).
            if func.attr in _MUTATOR_METHODS:
                root = _root_name(func.value)
                if root == "self":
                    self._add(
                        MUTATES_SELF, node.lineno,
                        f"self...{func.attr}()",
                    )
                elif root is not None and self._is_module_state(root):
                    self._add(
                        MUTATES_GLOBAL, node.lineno,
                        f"{root}.{func.attr}() mutates module state",
                    )
        self.generic_visit(node)

    def _write_target(self, target: ast.AST) -> None:
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        root = _root_name(target)
        if root == "self":
            self._add(MUTATES_SELF, target.lineno, ast.unparse(target))
        elif root is not None and self._is_module_state(root):
            self._add(
                MUTATES_GLOBAL, target.lineno,
                f"{ast.unparse(target)} writes module state",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._write_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._write_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._write_target(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._write_target(target)
        self.generic_visit(node)


def _local_kinds(graph: CallGraph, fn: FuncNode) -> dict[str, Sink]:
    """Every raw kind ``fn`` sources locally, with its first sink.

    Legacy sinks come straight from the call-graph scanner (already
    sanction-filtered there); the lattice-only sources are scanned here.
    """
    out: dict[str, Sink] = {}
    for sink in fn.sinks:
        out.setdefault(sink.kind, sink)
    if fn.node is None:  # pragma: no cover - every indexed fn keeps its AST
        return out
    mod = graph.module_index(fn.module)
    aliases = dict(mod.aliases) if mod is not None else {}
    state = dict(mod.state) if mod is not None else {}
    callables: set[str] = set()
    if mod is not None:
        callables = set(mod.functions) | set(mod.classes)
    scanner = _EffectScanner.for_function(fn, aliases, state, callables, out)
    for stmt in fn.node.body:
        scanner.visit(stmt)
    return out


def _tarjan_sccs(nodes: list[FuncNode]) -> Iterator[list[FuncNode]]:
    """Tarjan's SCCs, iteratively, emitted callees-first.

    Tarjan pops a component only once every component reachable from it
    has been popped, so consuming the emission order gives the reverse
    topological order the fixpoint needs.
    """
    counter = 0
    number: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[FuncNode] = []
    for root in nodes:
        if id(root) in number:
            continue
        number[id(root)] = low[id(root)] = counter
        counter += 1
        stack.append(root)
        on_stack.add(id(root))
        work: list[tuple[FuncNode, Iterator[FuncNode]]] = [
            (root, iter(root.callees))
        ]
        while work:
            fn, callees = work[-1]
            advanced = False
            for callee in callees:
                cid = id(callee)
                if cid not in number:
                    number[cid] = low[cid] = counter
                    counter += 1
                    stack.append(callee)
                    on_stack.add(cid)
                    work.append((callee, iter(callee.callees)))
                    advanced = True
                    break
                if cid in on_stack:
                    low[id(fn)] = min(low[id(fn)], number[cid])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[id(parent)] = min(low[id(parent)], low[id(fn)])
            if low[id(fn)] == number[id(fn)]:
                scc: list[FuncNode] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(id(member))
                    scc.append(member)
                    if member is fn:
                        break
                yield scc


def _project_atoms(kinds: set[str]) -> frozenset[str]:
    """Raw propagation kinds -> lattice atoms.

    The legacy ``mutation`` kind (engine-owned job state) deliberately
    stays out of the lattice: its scope is the SIM004 contract check,
    which certification applies to the ``choose_next_*`` methods via
    the taint it still carries.
    """
    atoms: set[str] = set()
    for atom, sources in _ATOM_SOURCES.items():
        if any(kind in kinds for kind in sources):
            atoms.add(atom)
    return frozenset(atoms)


def infer_effects(graph: CallGraph) -> None:
    """Annotate every function with its effect summary and legacy taint.

    Called by :meth:`CallGraph.finalize` once call edges exist.  Two
    passes:

    1. **Summaries** — fixpoint over the SCC condensation: an SCC's
       kind set is the union of its members' local kinds and of every
       callee outside the component (whose set is already final).
    2. **Witness steps** — per kind, a breadth-first layering rooted at
       the local sinks, walking caller-ward; each function keeps one
       forward step, so chains are shortest and deterministic (the
       exact selection the legacy taint closure made).
    """
    nodes = list(graph.iter_functions())
    local: dict[int, dict[str, Sink]] = {
        id(fn): _local_kinds(graph, fn) for fn in nodes
    }

    # Pass 1: summary fixpoint over the condensation.
    kinds_of: dict[int, set[str]] = {}
    scc_of: dict[int, int] = {}
    sccs = list(_tarjan_sccs(nodes))
    for scc_index, scc in enumerate(sccs):
        for fn in scc:
            scc_of[id(fn)] = scc_index
    for scc_index, scc in enumerate(sccs):
        kinds: set[str] = set()
        for fn in scc:
            kinds.update(local[id(fn)])
            for callee in fn.callees:
                if scc_of.get(id(callee)) != scc_index:
                    kinds.update(kinds_of.get(id(callee), ()))
        for fn in scc:
            kinds_of[id(fn)] = kinds

    # Pass 2: witness-step selection (sink-rooted BFS per kind).
    callers: dict[int, list[FuncNode]] = {}
    for fn in nodes:
        for callee in fn.callees:
            callers.setdefault(id(callee), []).append(fn)
    steps: dict[int, dict[str, tuple[str, object]]] = {
        id(fn): {} for fn in nodes
    }
    for kind in _ALL_KINDS:
        frontier: list[FuncNode] = []
        for fn in nodes:
            sink = local[id(fn)].get(kind)
            if sink is not None:
                steps[id(fn)][kind] = ("sink", sink)
                frontier.append(fn)
        while frontier:
            nxt: list[FuncNode] = []
            for fn in frontier:
                for caller in callers.get(id(fn), ()):
                    if kind not in steps[id(caller)]:
                        steps[id(caller)][kind] = ("call", fn)
                        nxt.append(caller)
            frontier = nxt

    # Publish: lattice summary + the legacy taint the rules consume.
    for fn in nodes:
        fn_steps = steps[id(fn)]
        assert set(fn_steps) == kinds_of[id(fn)], (
            f"effect fixpoint / witness layering disagree for {fn.display}"
        )
        fn.effects = EffectSummary(
            atoms=_project_atoms(kinds_of[id(fn)]), steps=fn_steps
        )
        for kind in ("wallclock", "rng", "mutation", "raise"):
            step = fn_steps.get(kind)
            if step is not None:
                fn.taint[kind] = step


def effect_witness(
    fn: FuncNode, atom: str
) -> Optional[tuple[list[str], Sink]]:
    """Call chain from ``fn`` to the origin of ``atom``, or None.

    Returns ``(chain, sink)`` with ``chain`` the display names from
    ``fn`` down to (and including) the function holding the local
    source — the shape :meth:`CallGraph.witness` returns, extended to
    the whole lattice.
    """
    summary = fn.effects
    if summary is None or atom not in summary.atoms:
        return None
    for kind in _ATOM_SOURCES.get(atom, ()):
        step = summary.steps.get(kind)
        if step is None:
            continue
        chain = [fn.display]
        node = fn
        # The BFS layering makes chains shortest, but generated code
        # can still legitimately be deep; the guard only breaks cycles
        # a corrupted steps table could introduce.  On exhaustion (or
        # any malformed step) fall through to the next kind instead of
        # asserting — a witness is best-effort, a crash is not.
        guard = 0
        broken = False
        while step[0] == "call":
            if guard >= 10_000:
                broken = True
                break
            callee = step[1]
            if not isinstance(callee, FuncNode):
                broken = True
                break
            node = callee
            chain.append(node.display)
            next_summary = node.effects
            if next_summary is None:  # pragma: no cover - closure invariant
                broken = True
                break
            step = next_summary.steps.get(kind)
            if step is None:  # pragma: no cover - closure invariant
                broken = True
                break
            guard += 1
        if broken:
            continue
        sink = step[1]
        if not isinstance(sink, Sink):  # pragma: no cover - closure invariant
            continue
        return chain, sink
    return None
