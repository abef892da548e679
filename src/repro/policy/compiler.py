"""Compile a validated policy tree into a live :class:`Scheduler`.

The compiler decides the cheapest scheduler shape the tree admits:

* every feature static → a :class:`CompiledStaticPolicy`
  (:class:`~repro.schedulers.base.StaticPriorityScheduler` subclass):
  the engine serves it from the O(log n) heap fast path and the
  columnar kernel accepts it, exactly like hand-written FIFO/EDF;
* any dynamic feature → a :class:`CompiledDynamicPolicy` evaluated per
  decision on the dynamic allocation path, like Fair.

Either way the priority key is ``(tree(job), submit_time, job_id)`` —
the forced tie-break makes every compiled policy a total order, so
replays are digest-reproducible by construction (an evolve winner's
pinned event digest is stable across processes and machines).

Trees compile to nests of plain closures (one per node) over
module-level feature accessors — no per-decision dict lookups or
interpretation overhead.  Single-term, unweighted leaves (what ``pick``
desugars to) collapse to a direct accessor call, which is what keeps a
tree-FIFO within 2x of hand-written FIFO per decision
(``BENCH_policy.json``).

Compiled schedulers hold closures and are deliberately *not* picklable;
they cross process boundaries symbolically instead, as the ``policy``
:class:`~repro.parallel.executor.SchedulerSpec` kind whose kwargs carry
the canonical tree JSON (see :func:`policy_spec`).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional, Sequence, Union

from ..core.cluster import ClusterConfig
from ..core.job import Job
from ..schedulers.base import Scheduler, StaticPriorityScheduler
from .dsl import (
    FEATURES,
    Leaf,
    Node,
    PolicyDoc,
    Predicate,
    canonical_policy_json,
    policy_digest,
)
from .validate import parse_policy

__all__ = [
    "CompiledDynamicPolicy",
    "CompiledStaticPolicy",
    "compile_policy",
    "policy_spec",
]

_INF = math.inf

_OP_TABLE: dict[str, Callable[[float, float], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class _EvalContext:
    """Per-decision state a dynamic tree may read.

    One instance lives on the scheduler and is refreshed in place per
    decision (no allocation on the hot path).  ``now`` is the narrow
    interface's only clock: the time of the last job arrival/departure
    hook — deterministic, hence digest-stable, though it lags task-level
    events (the interface exposes nothing finer; documented in
    docs/policies.md).
    """

    __slots__ = ("now", "queue_depth", "free_map", "free_reduce", "_work")

    def __init__(self) -> None:
        self.now = 0.0
        self.queue_depth = 0.0
        self.free_map = 0.0
        self.free_reduce = 0.0
        self._work: dict[int, float] = {}

    def total_work(self, job: Job) -> float:
        value = self._work.get(job.job_id)
        if value is None:
            value = job.profile.total_task_seconds()
            self._work[job.job_id] = value
        return value


_Accessor = Callable[[Job, _EvalContext], float]


def _deadline(job: Job, ctx: _EvalContext) -> float:
    return job.deadline if job.deadline is not None else _INF


def _relative_deadline(job: Job, ctx: _EvalContext) -> float:
    if job.deadline is None:
        return _INF
    return job.deadline - job.submit_time


def _deadline_slack(job: Job, ctx: _EvalContext) -> float:
    if job.deadline is None:
        return _INF
    return job.deadline - ctx.now


_ACCESSORS: dict[str, _Accessor] = {
    "submit_time": lambda job, ctx: job.submit_time,
    "deadline": _deadline,
    "relative_deadline": _relative_deadline,
    "has_deadline": lambda job, ctx: 1.0 if job.deadline is not None else 0.0,
    "num_maps": lambda job, ctx: float(job.num_maps),
    "num_reduces": lambda job, ctx: float(job.num_reduces),
    "total_tasks": lambda job, ctx: float(job.num_maps + job.num_reduces),
    "total_work": lambda job, ctx: ctx.total_work(job),
    "avg_map_duration": lambda job, ctx: job.profile.map_stats.avg,
    "avg_reduce_duration": lambda job, ctx: job.profile.reduce_stats.avg,
    "queue_depth": lambda job, ctx: ctx.queue_depth,
    "job_age": lambda job, ctx: ctx.now - job.submit_time,
    "deadline_slack": _deadline_slack,
    "map_fraction_completed": lambda job, ctx: job.map_fraction_completed(),
    "pending_maps": lambda job, ctx: float(job.pending_maps),
    "pending_reduces": lambda job, ctx: float(job.pending_reduces),
    "running_maps": lambda job, ctx: float(job.running_maps),
    "running_reduces": lambda job, ctx: float(job.running_reduces),
    "free_map_slots": lambda job, ctx: ctx.free_map,
    "free_reduce_slots": lambda job, ctx: ctx.free_reduce,
}
assert set(_ACCESSORS) == set(FEATURES), "accessor table drifted from vocabulary"


def _compile_leaf(leaf: Leaf) -> _Accessor:
    terms = tuple(
        (_ACCESSORS[term.feature], term.weight) for term in leaf.score_terms()
    )
    bias = 0.0 if leaf.pick is not None else leaf.bias
    if len(terms) == 1 and terms[0][1] == 1.0 and bias == 0.0:
        accessor = terms[0][0]

        def evaluate_direct(job: Job, ctx: _EvalContext) -> float:
            value = accessor(job, ctx)
            return value if value == value else _INF

        return evaluate_direct

    def evaluate(job: Job, ctx: _EvalContext) -> float:
        score = bias
        for accessor, weight in terms:
            score += weight * accessor(job, ctx)
        # nan (inf - inf across terms) would make comparisons
        # order-dependent; collapse it to "last" deterministically.
        return score if score == score else _INF

    return evaluate


def _compile_node(node: Node) -> _Accessor:
    if isinstance(node, Leaf):
        return _compile_leaf(node)
    assert isinstance(node, Predicate)
    accessor = _ACCESSORS[node.feature]
    op = _OP_TABLE[node.op]
    value = node.value
    then = _compile_node(node.then)
    otherwise = _compile_node(node.otherwise)

    def evaluate(job: Job, ctx: _EvalContext) -> float:
        if op(accessor(job, ctx), value):
            return then(job, ctx)
        return otherwise(job, ctx)

    return evaluate


class CompiledStaticPolicy(StaticPriorityScheduler):
    """A state-free tree as a static-priority policy (heap/kernel path)."""

    def __init__(self, doc: PolicyDoc) -> None:
        self.doc = doc
        self.name = f"policy:{doc.name}"
        self.digest = policy_digest(doc)
        self._evaluate = _compile_node(doc.tree)
        self._ctx = _EvalContext()

    def priority_key(self, job: Job) -> tuple:
        return (self._evaluate(job, self._ctx), job.submit_time, job.job_id)


class CompiledDynamicPolicy(Scheduler):
    """A state-reading tree, evaluated per decision like Fair.

    The decision context is maintained from the only state the narrow
    interface provides: the arrival/departure hooks (clock, cluster
    shape, active-job set) and the eligible-job queue itself.  Both
    engines ask ``choose_next_*``, so an evolve winner's pinned event
    digest is the same on either.
    """

    static_priority = False

    def __init__(self, doc: PolicyDoc) -> None:
        self.doc = doc
        self.name = f"policy:{doc.name}"
        self.digest = policy_digest(doc)
        self._evaluate = _compile_node(doc.tree)
        self._ctx = _EvalContext()
        features = doc.features()
        self._uses_slots = bool(
            features & {"free_map_slots", "free_reduce_slots"}
        )
        self._active: dict[int, Job] = {}
        self._now = 0.0
        self._cluster: Optional[ClusterConfig] = None

    def on_job_arrival(self, job: Job, time: float, cluster: ClusterConfig) -> None:
        if time > self._now:
            self._now = time
        self._cluster = cluster
        self._active[job.job_id] = job

    def on_job_departure(self, job: Job, time: float) -> None:
        if time > self._now:
            self._now = time
        self._active.pop(job.job_id, None)
        self._ctx._work.pop(job.job_id, None)

    def _choose(self, job_queue: Sequence[Job]) -> Optional[Job]:
        if not job_queue:
            return None
        ctx = self._ctx
        ctx.now = self._now
        ctx.queue_depth = float(len(job_queue))
        if self._uses_slots:
            busy_maps = 0
            busy_reduces = 0
            # integer sums are order-independent, so the dict's
            # insertion order cannot leak into the result
            for active in self._active.values():  # simlint: disable=DET003
                busy_maps += active.running_maps
                busy_reduces += active.running_reduces
            cluster = self._cluster
            map_slots = cluster.map_slots if cluster is not None else 0
            reduce_slots = cluster.reduce_slots if cluster is not None else 0
            ctx.free_map = float(max(0, map_slots - busy_maps))
            ctx.free_reduce = float(max(0, reduce_slots - busy_reduces))
        evaluate = self._evaluate
        return min(
            job_queue,
            key=lambda job: (evaluate(job, ctx), job.submit_time, job.job_id),
        )

    def choose_next_map_task(self, job_queue: Sequence[Job]) -> Optional[Job]:
        return self._choose(job_queue)

    def choose_next_reduce_task(self, job_queue: Sequence[Job]) -> Optional[Job]:
        return self._choose(job_queue)


def compile_policy(
    source: Union[str, bytes, dict, PolicyDoc], *, label: str = "<policy>"
) -> Union[CompiledStaticPolicy, CompiledDynamicPolicy]:
    """Validate (unless already parsed) and compile one policy tree.

    Raises :class:`~repro.policy.dsl.PolicyError` (carrying POL00x
    findings) on an invalid document.
    """
    doc = source if isinstance(source, PolicyDoc) else parse_policy(source, label=label)
    if doc.is_static():
        return CompiledStaticPolicy(doc)
    return CompiledDynamicPolicy(doc)


def policy_spec(source: Union[str, bytes, dict, PolicyDoc]) -> "Any":
    """The symbolic :class:`SchedulerSpec` for one validated policy.

    The spec's kwargs carry the *canonical* tree JSON, so equal policies
    get equal content identities regardless of input formatting —
    ``simulate_many``'s cache key and the per-worker rebuild both hang
    off that string.
    """
    from ..parallel.executor import SchedulerSpec

    doc = source if isinstance(source, PolicyDoc) else parse_policy(source)
    return SchedulerSpec(
        kind="policy",
        name=doc.name,
        kwargs=(("tree", canonical_policy_json(doc)),),
    )
