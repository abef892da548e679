"""The simlint rule set.

Each rule is a small :class:`~repro.analysis.visitor.LintRule` subclass
registered on :data:`~repro.analysis.registry.default_registry` with its
id, severity, and documentation.  See ``docs/linting.md`` for the
bad/good example of every rule.

Rule ids are grouped by invariant family:

* **DET** — determinism: the same trace and seed must produce the same
  schedule, bit for bit (the paper's replay guarantee).
* **SIM** — simulation semantics: simulated time is exact arithmetic on
  profile durations; scheduler plugins see the engine through the
  narrow ``choose_next_*`` contract (Section III-B).
* **API** — engine event protocol: time only moves forward.
* **CONC** — concurrency: shared state reachable from multiple thread
  entry points stays behind its lock, lock order is globally
  consistent, and cross-thread sqlite use goes through the sanctioned
  wrapper idiom.
* **RES** — resource safety: shared-memory segments, sqlite handles,
  and tempfiles are released (or ownership-transferred) on every CFG
  path, including exceptional ones.

The CONC/RES families are *whole-program* analyses computed by
:mod:`repro.analysis.concurrency` and :mod:`repro.analysis.resources`
over the finalized call graph; the rule classes here are thin shims
that replay the precomputed findings through the normal per-file
reporting machinery so ``--select``/``--disable`` and inline
``# simlint: disable=`` apply uniformly.
"""

from __future__ import annotations

import ast
from typing import Optional

from .callgraph import FuncNode, TaintKind
from .findings import Severity
from .registry import META_RULE_ID, RuleInfo, default_registry
from .visitor import CHOOSE_METHODS, WALLCLOCK_CALLS, FileContext, LintRule

__all__ = ["default_registry"]

# --------------------------------------------------------------------- #
# LINT000 — meta (docs only; emitted by FileContext, no rule class)
# --------------------------------------------------------------------- #

default_registry.register_meta(
    RuleInfo(
        rule_id=META_RULE_ID,
        title="simlint meta problem (unparsable file or bad directive)",
        severity=Severity.ERROR,
        rationale=(
            "A file that cannot be parsed cannot be checked, and a "
            "suppression naming an unknown rule id silently disables "
            "nothing — both must surface instead of hiding violations."
        ),
        hint="fix the syntax error, or correct the rule id in the "
        "'# simlint: disable=...' directive",
    )
)


# --------------------------------------------------------------------- #
# DET001 — wall-clock reads inside simulation logic
# --------------------------------------------------------------------- #


@default_registry.register(
    RuleInfo(
        rule_id="DET001",
        title="wall-clock read inside simulation logic",
        severity=Severity.ERROR,
        rationale=(
            "Simulated time is derived exclusively from trace profiles "
            "and the event heap; reading the host clock (time.time, "
            "perf_counter, datetime.now) inside engine/scheduler/trace "
            "code makes replays machine- and load-dependent, silently "
            "breaking the paper's bit-reproducibility guarantee."
        ),
        hint="use the engine's simulated clock (self._now / the event "
        "timestamp); wall-clock benchmarking belongs in whitelisted "
        "timing code or behind '# simlint: disable=DET001'",
    )
)
class WallClockRule(LintRule):
    def check_Call(self, node: ast.Call, ctx: FileContext) -> None:
        name = ctx.resolve_dotted(node.func)
        if name in WALLCLOCK_CALLS and ctx.in_sim_scope():
            ctx.report(self.info, node, message=f"wall-clock call {name}() in simulation logic")


# --------------------------------------------------------------------- #
# DET002 — unseeded randomness
# --------------------------------------------------------------------- #

def _np_random_member(name: str) -> Optional[str]:
    for prefix in ("numpy.random.",):
        if name.startswith(prefix):
            return name[len(prefix):]
    return None


@default_registry.register(
    RuleInfo(
        rule_id="DET002",
        title="unseeded or global-state randomness",
        severity=Severity.ERROR,
        rationale=(
            "All stochastic inputs (synthetic traces, failure injection, "
            "placement) must flow from an explicitly seeded "
            "numpy.random.Generator so every experiment is replayable "
            "from its seed.  The stdlib 'random' module and numpy's "
            "legacy module-level functions draw from hidden global "
            "state; default_rng() without a seed differs per process."
        ),
        hint="thread an explicitly seeded np.random.default_rng(seed) "
        "(or random.Random(seed)) through the call instead",
    )
)
class UnseededRandomRule(LintRule):
    def check_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if ctx.is_test_path:
            return
        name = ctx.resolve_dotted(node.func)
        if name is None:
            return
        if name == "random.Random" or name == "numpy.random.Generator":
            if node.args or node.keywords:
                return  # explicitly seeded/constructed
            ctx.report(self.info, node, message=f"{name}() constructed without a seed")
            return
        if name.startswith("random."):
            ctx.report(
                self.info,
                node,
                message=f"{name}() draws from the stdlib global RNG",
            )
            return
        member = _np_random_member(name)
        if member is None:
            return
        if member == "default_rng":
            seeded = bool(node.keywords) or (
                bool(node.args)
                and not (
                    isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                )
            )
            if not seeded:
                ctx.report(
                    self.info, node, message="np.random.default_rng() without a seed"
                )
        elif member[:1].islower():
            # Legacy module-level functions (np.random.rand, .seed, ...)
            # share one hidden global RandomState.  Capitalised members
            # (Generator, SeedSequence, ...) are classes, not draws.
            ctx.report(
                self.info,
                node,
                message=f"legacy global-state call np.random.{member}()",
            )


# --------------------------------------------------------------------- #
# DET003 — unordered-collection iteration in decision paths
# --------------------------------------------------------------------- #

_DICT_VIEWS = frozenset({"keys", "values", "items"})
_CONSUMERS = frozenset({"min", "max", "next", "list", "tuple", "any", "all", "sum"})


def _unordered_reason(node: ast.AST) -> Optional[str]:
    """Why iterating ``node`` has no stable order, or None if it does."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set"
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in {"set", "frozenset"}:
            return f"a {node.func.id}()"
        if isinstance(node.func, ast.Attribute) and node.func.attr in _DICT_VIEWS:
            return f".{node.func.attr}() of a mapping"
    return None


@default_registry.register(
    RuleInfo(
        rule_id="DET003",
        title="unordered iteration feeding a scheduling decision",
        severity=Severity.WARNING,
        rationale=(
            "Set iteration order is hash-randomized across processes, and "
            "dict views follow insertion order that rarely matches any "
            "documented tie-break.  Feeding either into a choose_next_*/"
            "priority/allocation decision makes two replays of the same "
            "trace disagree on which job wins a slot."
        ),
        hint="wrap the iterable in sorted(...) with an explicit, total "
        "tie-breaking key (e.g. (submit_time, job_id))",
    )
)
class UnorderedIterationRule(LintRule):
    def _check_iterable(self, it: ast.AST, ctx: FileContext, where: str) -> None:
        if not ctx.in_decision_scope():
            return
        reason = _unordered_reason(it)
        if reason is not None:
            ctx.report(
                self.info,
                it,
                message=f"iteration over {reason} in {where} has no deterministic order",
            )

    def check_For(self, node: ast.For, ctx: FileContext) -> None:
        self._check_iterable(node.iter, ctx, "a for loop")

    def check_comprehension(self, node: ast.comprehension, ctx: FileContext) -> None:
        self._check_iterable(node.iter, ctx, "a comprehension")

    def check_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _CONSUMERS
            and node.args
        ):
            self._check_iterable(node.args[0], ctx, f"{node.func.id}(...)")


# --------------------------------------------------------------------- #
# SIM001 — float equality on simulation-time expressions
# --------------------------------------------------------------------- #

_TIME_NAMES = frozenset({
    "now", "_now", "deadline", "makespan", "map_stage_end", "shuffle_end",
    "sim_time", "clock", "timestamp",
})
_TIME_SUFFIXES = ("_time", "_end", "_start", "_deadline")


def _terminal_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_time_expr(node: ast.AST) -> bool:
    name = _terminal_name(node)
    if name is None:
        return False
    return name in _TIME_NAMES or name.endswith(_TIME_SUFFIXES)


@default_registry.register(
    RuleInfo(
        rule_id="SIM001",
        title="float equality comparison on simulation time",
        severity=Severity.WARNING,
        rationale=(
            "Simulation timestamps are sums of float durations; two "
            "different orderings of the same arithmetic differ in the "
            "last ulp, so ==/!= on times encodes a coincidence, not a "
            "simulation invariant (e.g. 'reduce dispatched exactly at "
            "map_stage_end')."
        ),
        hint="compare with <=/>= against the event ordering, or use "
        "math.isclose with an explicit tolerance",
    )
)
class FloatTimeEqualityRule(LintRule):
    def check_Compare(self, node: ast.Compare, ctx: FileContext) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for a, b in ((left, right), (right, left)):
                if _is_time_expr(a):
                    # Comparing against None / a string is identity-ish
                    # dispatch, not time arithmetic.
                    if isinstance(b, ast.Constant) and (
                        b.value is None or isinstance(b.value, str)
                    ):
                        break
                    ctx.report(
                        self.info,
                        node,
                        message=(
                            f"{'==' if isinstance(op, ast.Eq) else '!='} on "
                            f"simulation-time expression {ast.unparse(a)}"
                        ),
                    )
                    break


# --------------------------------------------------------------------- #
# SIM002 — choose_next_* mutating engine-owned state
# --------------------------------------------------------------------- #

_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "pop", "remove", "clear", "add",
    "discard", "update", "setdefault", "popitem", "sort", "reverse",
})


def _attr_root(node: ast.AST) -> Optional[ast.Name]:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node if isinstance(node, ast.Name) else None


@default_registry.register(
    RuleInfo(
        rule_id="SIM002",
        title="choose_next_* mutates engine-owned job state",
        severity=Severity.ERROR,
        rationale=(
            "The paper's scheduler contract is a *narrow read-only query*: "
            "CHOOSENEXTMAPTASK/CHOOSENEXTREDUCETASK return which job runs "
            "next.  Job and TaskRecord bookkeeping (dispatch counters, "
            "state, records, caps) belongs to the engine; a plugin writing "
            "it from choose_next_* desynchronises the engine's slot "
            "accounting and the fast path's heap invariants."
        ),
        hint="keep plugin state on self; set per-job knobs like "
        "wanted_*_slots from the on_job_arrival hook instead",
    )
)
class EngineOwnedMutationRule(LintRule):
    def _flag(self, node: ast.AST, ctx: FileContext, what: str) -> None:
        ctx.report(self.info, node, message=f"choose_next_* {what}")

    def _non_self_attr_target(self, target: ast.AST) -> Optional[str]:
        if not isinstance(target, ast.Attribute):
            return None
        root = _attr_root(target)
        if root is not None and root.id == "self":
            return None
        try:
            return ast.unparse(target)
        except Exception:  # pragma: no cover - unparse is total on exprs
            return target.attr  # type: ignore[union-attr]

    def check_Assign(self, node: ast.Assign, ctx: FileContext) -> None:
        if ctx.in_choose_method() is None:
            return
        for target in node.targets:
            desc = self._non_self_attr_target(target)
            if desc is not None:
                self._flag(node, ctx, f"assigns {desc}")

    def check_AugAssign(self, node: ast.AugAssign, ctx: FileContext) -> None:
        if ctx.in_choose_method() is None:
            return
        desc = self._non_self_attr_target(node.target)
        if desc is not None:
            self._flag(node, ctx, f"mutates {desc} in place")

    def check_Call(self, node: ast.Call, ctx: FileContext) -> None:
        fn = ctx.in_choose_method()
        if fn is None:
            return
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in _MUTATOR_METHODS):
            return
        # Only flag mutations rooted at a job flowing out of the queue
        # parameter — locals (self-owned dicts, scratch lists) are fine.
        root = _attr_root(func.value)
        if root is not None and root.id in fn.jobish_names:
            try:
                desc = ast.unparse(func)
            except Exception:  # pragma: no cover
                desc = func.attr
            self._flag(node, ctx, f"calls mutator {desc}()")


# --------------------------------------------------------------------- #
# SIM003 — static_priority contract mismatch
# --------------------------------------------------------------------- #


@default_registry.register(
    RuleInfo(
        rule_id="SIM003",
        title="static_priority contract mismatch",
        severity=Severity.ERROR,
        rationale=(
            "static_priority=True promises the engine that priority_key "
            "is constant per job and fully determines choose_next_*, so "
            "dispatches are served from a heap and choose_next_* is "
            "NEVER called on the fast path.  A subclass that also "
            "hand-writes choose_next_* (or omits priority_key) has two "
            "sources of truth that will silently drift apart."
        ),
        hint="inherit StaticPriorityScheduler and define only "
        "priority_key; or drop static_priority=True to run on the "
        "dynamic (narrow-interface) path",
    )
)
class StaticPriorityContractRule(LintRule):
    def finish_ClassDef(self, node: ast.ClassDef, ctx: FileContext) -> None:
        cls = ctx.current_class
        if cls is None or cls.node is not node or not cls.is_scheduler:
            return
        if not cls.static_priority:
            return
        for fn in cls.own_choose_defs:
            ctx.report(
                self.info,
                fn,
                message=(
                    f"{node.name} declares static_priority=True but overrides "
                    f"{fn.name}; the fast path serves dispatches from "
                    "priority_key and ignores this override"
                ),
            )
        if cls.declares_static_priority and not (
            cls.has_priority_key or cls.inherits_static_priority
        ):
            ctx.report(
                self.info,
                node,
                message=(
                    f"{node.name} declares static_priority=True but defines no "
                    "priority_key; the fast path has nothing to order jobs by"
                ),
            )


# --------------------------------------------------------------------- #
# API001 — events pushed into the past
# --------------------------------------------------------------------- #

_PUSH_NAMES = frozenset({"_push_event", "push_event", "schedule_event", "schedule_at"})
_NOW_NAMES = frozenset({"now", "_now"})


def _is_now_expr(node: ast.AST) -> bool:
    name = _terminal_name(node)
    return name in _NOW_NAMES


@default_registry.register(
    RuleInfo(
        rule_id="API001",
        title="event pushed with a timestamp in the past",
        severity=Severity.ERROR,
        rationale=(
            "The event heap pops in nondecreasing time order; pushing an "
            "event at now - delta (or a negative absolute time) from a "
            "handler rewinds the simulation clock for that event, "
            "corrupting causality and every downstream metric."
        ),
        hint="schedule at self._now or later (now + delay); if a "
        "correction is needed, recompute state now instead of "
        "back-dating an event",
    )
)
class PastEventRule(LintRule):
    def check_Call(self, node: ast.Call, ctx: FileContext) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name not in _PUSH_NAMES or not node.args:
            return
        when = node.args[0]
        if (
            isinstance(when, ast.BinOp)
            and isinstance(when.op, ast.Sub)
            and _is_now_expr(when.left)
        ):
            ctx.report(
                self.info,
                node,
                message=f"{name}() scheduled at {ast.unparse(when)} — before the current time",
            )
        elif (
            isinstance(when, ast.UnaryOp)
            and isinstance(when.op, ast.USub)
            and isinstance(when.operand, ast.Constant)
        ) or (
            isinstance(when, ast.Constant)
            and isinstance(when.value, (int, float))
            and when.value < 0
        ):
            ctx.report(
                self.info,
                node,
                message=f"{name}() scheduled at negative absolute time {ast.unparse(when)}",
            )


# --------------------------------------------------------------------- #
# Cross-module rules (DET004 / SIM004 / API002)
#
# These consume the whole-program call graph built by the runner (see
# repro.analysis.callgraph).  They fire only at calls into *project*
# functions, so they never double-report a violation the per-file rules
# (DET001/DET002/SIM002) already flag at the sink line itself.
# --------------------------------------------------------------------- #


def _project_callees(node: ast.Call, ctx: FileContext) -> "list[FuncNode]":
    """Unique project functions a call site resolves to (graph-backed)."""
    if ctx.callgraph is None:
        return []
    seen: set[int] = set()
    out: list[FuncNode] = []
    for fn in ctx.callgraph.callees_at(node):
        if id(fn) not in seen:
            seen.add(id(fn))
            out.append(fn)
    return out


def _witness_message(ctx: FileContext, fn: "FuncNode", kind: "TaintKind") -> Optional[str]:
    """`chain -> sink` description if ``fn`` is ``kind``-tainted."""
    assert ctx.callgraph is not None
    hit = ctx.callgraph.witness(fn, kind)
    if hit is None:
        return None
    chain, sink = hit
    return f"{' -> '.join(chain)} -> {sink.detail}"


@default_registry.register(
    RuleInfo(
        rule_id="DET004",
        title="simulation logic transitively reaches wall-clock or global RNG",
        severity=Severity.ERROR,
        rationale=(
            "DET001/DET002 check the sink line itself, so a scheduler "
            "that reads the host clock or the global RNG *through a "
            "helper function* — possibly in another module — passes the "
            "per-file rules clean while still making replays machine- "
            "and process-dependent.  The call graph propagates sink "
            "reachability caller-ward, closing the indirection loophole."
        ),
        hint="thread simulated time / a seeded Generator into the helper "
        "instead; sanctioned wall-clock reads live in "
        "repro.core.walltime or timing-whitelisted paths",
    )
)
class TransitiveNondeterminismRule(LintRule):
    def check_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if not ctx.in_sim_scope():
            return
        for fn in _project_callees(node, ctx):
            wall = _witness_message(ctx, fn, "wallclock")
            if wall is not None:
                ctx.report(
                    self.info, node,
                    message=f"call into {fn.display}() transitively reads the wall clock: {wall}",
                )
            rng = _witness_message(ctx, fn, "rng")
            if rng is not None:
                ctx.report(
                    self.info, node,
                    message=f"call into {fn.display}() transitively draws global randomness: {rng}",
                )


@default_registry.register(
    RuleInfo(
        rule_id="SIM004",
        title="choose_next_* transitively mutates engine-owned state",
        severity=Severity.ERROR,
        rationale=(
            "SIM002 catches a choose_next_* body writing engine-owned "
            "Job bookkeeping directly, but the contract is just as "
            "broken when the write hides inside a helper the method "
            "calls ('helpful' dispatch-counter updates, record edits).  "
            "The call graph follows the helpers, so the narrow read-only "
            "query stays read-only all the way down."
        ),
        hint="return the chosen job and let the engine do the "
        "bookkeeping; per-job knobs (wanted_*_slots) belong in "
        "on_job_arrival",
    )
)
class TransitiveChooseMutationRule(LintRule):
    def check_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if ctx.in_choose_method() is None:
            return
        for fn in _project_callees(node, ctx):
            mut = _witness_message(ctx, fn, "mutation")
            if mut is not None:
                ctx.report(
                    self.info, node,
                    message=(
                        f"choose_next_* calls {fn.display}() which mutates "
                        f"engine-owned job state: {mut}"
                    ),
                )


@default_registry.register(
    RuleInfo(
        rule_id="API002",
        title="scheduler entry point can raise undeclared exceptions",
        severity=Severity.WARNING,
        rationale=(
            "The engine invokes the scheduler contract (choose_next_*, "
            "priority_key, preemption_requests, on_job_*) on every valid "
            "trace; an exception escaping one of them aborts the whole "
            "replay mid-simulation.  A raise hidden in a transitive "
            "callee is invisible at the entry point unless its docstring "
            "declares it — so callers can neither handle nor rule it out."
        ),
        hint="document the exception in a 'Raises' docstring section of "
        "the entry point, or handle it inside; NotImplementedError / "
        "AssertionError are exempt",
    )
)
class UndeclaredRaiseRule(LintRule):
    def check_Call(self, node: ast.Call, ctx: FileContext) -> None:
        entry = ctx.in_contract_method()
        if entry is None:
            return
        doc = ast.get_docstring(entry.node)
        if doc is not None and "raise" in doc.lower():
            return  # declared
        for fn in _project_callees(node, ctx):
            hit = ctx.callgraph.witness(fn, "raise") if ctx.callgraph else None
            if hit is not None:
                chain, sink = hit
                ctx.report(
                    self.info, node,
                    message=(
                        f"{entry.name} can raise {sink.detail} via "
                        f"{' -> '.join(chain)} without declaring it"
                    ),
                )


# --------------------------------------------------------------------- #
# CONC/RES — whole-program families, replayed from the dataflow layer
# --------------------------------------------------------------------- #


class _ProgramRule(LintRule):
    """Shim replaying precomputed whole-program findings for one rule.

    The runner attaches this file's slice of the CONC/RES analysis
    output to the :class:`~repro.analysis.visitor.FileContext`; the
    shim routes each raw finding through ``ctx.report`` so rule
    selection and line suppression behave exactly like per-file rules.
    """

    def check_Module(self, node: ast.Module, ctx: FileContext) -> None:
        for raw in ctx.program_findings_for(self.info.rule_id):
            ctx.report(self.info, raw.anchor, message=raw.message)


@default_registry.register(
    RuleInfo(
        rule_id="CONC001",
        title="unsynchronized write to lock-guarded shared attribute",
        severity=Severity.ERROR,
        rationale=(
            "An attribute the class guards with a lock *somewhere* is "
            "declared shared state; writing it without that lock in a "
            "method reachable from two or more concurrent thread entry "
            "points (HTTP handlers, worker threads) is a data race that "
            "replays may or may not reproduce — the exact failure mode "
            "the paper's digest-identity guarantee exists to rule out."
        ),
        hint="wrap the write in 'with self._lock:' (the same lock that "
        "guards the attribute elsewhere), or stop sharing the attribute",
    )
)
class UnsyncSharedWriteRule(_ProgramRule):
    pass


@default_registry.register(
    RuleInfo(
        rule_id="CONC002",
        title="locks acquired in inconsistent order (potential deadlock)",
        severity=Severity.ERROR,
        rationale=(
            "Acquiring lock B while holding A on one path and A while "
            "holding B on another (directly or through a callee) can "
            "deadlock under concurrent load; a single test run will "
            "essentially never produce the interleaving, so only static "
            "ordering discipline catches it before production."
        ),
        hint="pick one global acquisition order and restructure the "
        "later acquisition (release first, or merge the critical "
        "sections under the outer lock)",
    )
)
class LockOrderRule(_ProgramRule):
    pass


@default_registry.register(
    RuleInfo(
        rule_id="CONC003",
        title="cross-thread sqlite use outside the sanctioned wrapper",
        severity=Severity.ERROR,
        rationale=(
            "sqlite3 connections are not thread-safe; a connection "
            "declared cross-thread (check_same_thread=False) or owned "
            "by a class whose methods run on multiple threads must have "
            "every use serialized behind one lock — the ResultCache "
            "idiom.  An unguarded execute corrupts state silently."
        ),
        hint="hold the class's guarding lock around every connection "
        "use, or keep the connection thread-local",
    )
)
class CrossThreadSqliteRule(_ProgramRule):
    pass


@default_registry.register(
    RuleInfo(
        rule_id="CONC004",
        title="manual lock acquire without guaranteed release",
        severity=Severity.WARNING,
        rationale=(
            "A bare lock.acquire() with any path (normal or "
            "exceptional) to function exit that skips release() leaves "
            "the lock held forever — every other thread then parks on "
            "it and the service wedges without crashing."
        ),
        hint="use 'with lock:' (or try/finally with release()) so every "
        "exit path releases",
    )
)
class ManualAcquireRule(_ProgramRule):
    pass


@default_registry.register(
    RuleInfo(
        rule_id="RES001",
        title="SharedMemory segment may leak on an exit path",
        severity=Severity.ERROR,
        rationale=(
            "A multiprocessing SharedMemory segment pins /dev/shm "
            "backing until unlink(); if an exception escapes between "
            "creation and registration with its cleanup owner, the "
            "segment outlives the process — a crashed sweep then leaks "
            "real memory until reboot."
        ),
        hint="register the segment with its cleanup owner before any "
        "fallible write, or close()/unlink() in a finally",
    )
)
class SharedMemoryLeakRule(_ProgramRule):
    pass


@default_registry.register(
    RuleInfo(
        rule_id="RES002",
        title="sqlite connection or cursor not closed on every path",
        severity=Severity.WARNING,
        rationale=(
            "Unclosed sqlite connections hold file locks and journal "
            "state; unclosed cursors pin result sets until GC runs.  "
            "Both are invisible in tests and surface as 'database is "
            "locked' under concurrent load."
        ),
        hint="use 'with contextlib.closing(...)' for connections and "
        "close cursors once the result is read",
    )
)
class SqliteLifetimeRule(_ProgramRule):
    pass


# --------------------------------------------------------------------- #
# POL001-POL005 — policy-tree findings.
# Registered as meta entries (docs, config validation, --list-rules):
# these ids are produced by repro.policy.validate over *policy JSON
# documents*, not by AST rule classes walking Python source.  The
# finding's path field carries a JSON pointer into the tree
# (label#/tree/then/...).
# --------------------------------------------------------------------- #

for _info in (
    RuleInfo(
        rule_id="POL001",
        title="malformed policy document (structure, keys, types, version)",
        severity=Severity.ERROR,
        rationale=(
            "The policy DSL is strict by construction: an unknown key or "
            "a tolerated type coercion would make two visually different "
            "documents compile to different schedulers while canonical- "
            "izing to the same identity, corrupting the result cache."
        ),
        hint="see docs/policies.md for the version-1 grammar",
    ),
    RuleInfo(
        rule_id="POL002",
        title="unknown feature, operator or pick rule in a policy tree",
        severity=Severity.ERROR,
        rationale=(
            "A policy referencing state outside the published vocabulary "
            "cannot be compiled; silently ignoring the term would replay "
            "a different policy than the one submitted."
        ),
        hint="the vocabulary is repro.policy.FEATURES; operators are "
        "<, <=, >, >=; picks are fifo, edf, sjf, least_slack",
    ),
    RuleInfo(
        rule_id="POL003",
        title="policy tree exceeds bounds or uses non-finite constants",
        severity=Severity.ERROR,
        rationale=(
            "Depth/size bounds keep validation and compilation O(small) "
            "on untrusted service input; non-finite thresholds and zero "
            "weights make score arithmetic produce nan, whose comparisons "
            "are order-dependent — a nondeterministic schedule."
        ),
        hint="stay within 16 levels / 128 nodes / 8 terms and use finite, "
        "non-zero constants",
    ),
    RuleInfo(
        rule_id="POL004",
        title="unreachable branch in a policy tree",
        severity=Severity.WARNING,
        rationale=(
            "A branch whose condition can never hold given the feature "
            "bounds established on the path above it is dead weight — "
            "usually a sign the comparison is inverted or the threshold "
            "is outside the feature's domain."
        ),
        hint="delete the dead branch or fix the comparison",
    ),
    RuleInfo(
        rule_id="POL005",
        title="policy declares 'static': true but reads dynamic state",
        severity=Severity.ERROR,
        rationale=(
            "The static claim routes the compiled policy onto the "
            "engine's heap fast path, which assumes priorities constant "
            "per job; a dynamic feature would be sampled once at heap "
            "insertion and replayed stale — a silently wrong, timing- "
            "dependent schedule."
        ),
        hint="drop the 'static' claim or the dynamic feature",
    ),
):
    default_registry.register_meta(_info)
del _info


@default_registry.register(
    RuleInfo(
        rule_id="RES003",
        title="tempfile created without cleanup on an exit path",
        severity=Severity.WARNING,
        rationale=(
            "mkstemp/mkdtemp/NamedTemporaryFile(delete=False) create "
            "durable filesystem artifacts; a path that exits without "
            "os.unlink/shutil.rmtree and without handing the path to a "
            "cleanup owner fills the spill directory across sweeps."
        ),
        hint="hand the path to its cleanup owner before fallible "
        "writes, or remove it in a finally",
    )
)
class TempfileLeakRule(_ProgramRule):
    pass
