"""Multiprocessing fan-out of simulation campaigns.

One SimMR replay is sub-second, but a campaign — a what-if sweep, a
scheduler-zoo comparison, a deadline-factor grid — is hundreds of
independent replays, and the engine is pure CPU-bound Python.  This
module fans a batch of :class:`SimTask` descriptions out across a
``multiprocessing`` worker pool, with three properties the serial loop
already had and must keep:

* **Determinism** — every task derives a seed from its content key
  (trace digest + scheduler identity + engine config), so a run's RNG
  material is a pure function of *what* is simulated, never of which
  worker ran it or in what order.  Results are returned in submission
  order regardless of completion order.
* **Verifiability** — each run streams its popped events into a BLAKE2b
  :class:`~repro.sanitize.digest.EventDigest` (via the zero-check
  :class:`~repro.sanitize.digest.DigestRecorder`), so serial, parallel
  and cache-restored executions of the same task can be asserted
  event-identical in one comparison.
* **Reuse** — completed runs are stored in a content-addressed
  :class:`~repro.parallel.cache.ResultCache` as they finish; re-running
  a campaign only executes tasks whose inputs changed, and an
  interrupted campaign resumes from the completed cells for free.

Tasks cross the process boundary as plain picklable data: schedulers
as symbolic :class:`SchedulerSpec` names resolved inside the worker,
traces as *paths to spill files*.  Each distinct trace is packed once
into the compact binary format (:mod:`repro.trace.binfmt`) under its
content digest and written to a temporary ``.simmr`` file; workers
``mmap`` it read-only on first use, re-check its digest and rebuild
zero-copy :class:`~repro.core.columns.TraceColumns` views, so the bytes
shipped per worker are O(1) in the trace size and the page cache holds
one physical copy of the durations for all workers.  Results come back
as the bytes :func:`~repro.core.results_io.result_to_bytes` packs, the
same bytes the result cache stores.

In-process factories (``SchedulerSpec.inline``) are supported for
ad-hoc policies but always execute in the parent and bypass the cache —
a closure has no content address.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

from ..core.cluster import ClusterConfig
from ..core.columns import TraceColumns
from ..core.engine import SimulatorEngine
from ..core.kernel import ColumnarEngine
from ..core.job import TraceJob
from ..core.results import SimulationResult
from ..core.results_io import result_from_bytes, result_to_bytes
from ..sanitize.digest import DigestRecorder, trace_digest
from ..schedulers import Scheduler, make_scheduler
from .cache import ResultCache, cache_key_from_json, config_json, default_cache_path

__all__ = [
    "FanoutStats",
    "SchedulerSpec",
    "SimTask",
    "SimOutcome",
    "last_fanout_stats",
    "simulate_many",
    "spec_kinds",
]

ProgressFn = Callable[[int, int, "SimOutcome"], None]


# --------------------------------------------------------------------------- #
# scheduler specs
# --------------------------------------------------------------------------- #

def _resolve_registry(name: str, kwargs: dict[str, Any]) -> Scheduler:
    return make_scheduler(name, **kwargs)


def _resolve_zoo(name: str, kwargs: dict[str, Any]) -> Scheduler:
    from ..experiments.scheduler_zoo import ZOO_POLICIES

    try:
        factory = ZOO_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown zoo policy {name!r}; known: {sorted(ZOO_POLICIES)}"
        ) from None
    return factory(**kwargs)


def _resolve_policy(name: str, kwargs: dict[str, Any]) -> Scheduler:
    """Resolver for ``policy``: a decision-tree document shipped as data.

    ``kwargs["tree"]`` is the policy's *canonical* JSON text
    (:func:`repro.policy.canonical_policy_json`) — a plain string, so
    the spec stays picklable and its :meth:`SchedulerSpec.identity` is
    content-stable for the result cache.  The tree is re-validated here
    (POL00x rules) before compiling, so a worker process never executes
    an uncertified policy even if the parent was bypassed.
    """
    from ..policy import compile_policy

    kwargs = dict(kwargs)
    tree = kwargs.pop("tree", None)
    if not isinstance(tree, str) or not tree.strip():
        raise ValueError(
            "policy scheduler spec requires kwargs['tree'] "
            "(the canonical policy JSON text)"
        )
    if kwargs:
        raise ValueError(
            f"policy scheduler spec got unexpected kwargs: {sorted(kwargs)}"
        )
    return compile_policy(tree, label=f"policy:{name}")


#: Spec kind -> resolver(name, kwargs) -> fresh Scheduler.
_SPEC_KINDS: dict[str, Callable[[str, dict[str, Any]], Scheduler]] = {
    "registry": _resolve_registry,
    "zoo": _resolve_zoo,
    "policy": _resolve_policy,
}


def spec_kinds() -> tuple[str, ...]:
    """The symbolic scheduler families, sorted.

    ``"inline"`` is not listed: inline specs wrap a factory object and
    cannot be named from data (a request document, a config file).
    """
    return tuple(sorted(_SPEC_KINDS))


@dataclass(frozen=True)
class SchedulerSpec:
    """Symbolic, picklable description of how to build a scheduler.

    ``kind``/``name``/``kwargs`` address a resolver in the spec-kind
    table ("registry" = :func:`repro.schedulers.make_scheduler`,
    "zoo" = :data:`repro.experiments.scheduler_zoo.ZOO_POLICIES`).
    ``seeded=True`` passes the task's derived deterministic seed to the
    resolver as a ``seed`` kwarg (for stochastic policies).

    :meth:`inline` wraps an arbitrary zero-argument factory instead;
    inline specs have no content identity, so they run in the parent
    process and are never cached.
    """

    kind: str = "registry"
    name: str = "fifo"
    kwargs: tuple[tuple[str, Any], ...] = ()
    seeded: bool = False
    factory: Optional[Callable[[], Scheduler]] = field(
        default=None, compare=False, repr=False
    )

    @classmethod
    def inline(cls, name: str, factory: Callable[[], Scheduler]) -> "SchedulerSpec":
        return cls(kind="inline", name=name, factory=factory)

    @property
    def cacheable(self) -> bool:
        return self.factory is None

    def identity(self) -> str:
        """Stable content identity (part of the cache key)."""
        if not self.cacheable:
            raise ValueError(f"inline scheduler spec {self.name!r} has no identity")
        kwargs_json = json.dumps(dict(self.kwargs), sort_keys=True, separators=(",", ":"))
        return f"{self.kind}:{self.name}:{kwargs_json}"

    def build(self, seed: int) -> Scheduler:
        """A fresh scheduler instance for one run."""
        if self.factory is not None:
            return self.factory()
        try:
            resolver = _SPEC_KINDS[self.kind]
        except KeyError:
            raise ValueError(
                f"unknown scheduler spec kind {self.kind!r}; known: "
                f"{sorted(_SPEC_KINDS)}"
            ) from None
        kwargs = dict(self.kwargs)
        if self.seeded:
            kwargs["seed"] = seed
        return resolver(self.name, kwargs)


# --------------------------------------------------------------------------- #
# tasks and outcomes
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class SimTask:
    """One independent simulation: (trace, scheduler, engine config).

    ``trace_id`` references the trace table passed to
    :func:`simulate_many` — traces are shipped to workers once, not per
    task.  ``tag`` is an arbitrary picklable correlation handle returned
    untouched on the outcome (e.g. the sweep-grid point).
    """

    trace_id: str
    scheduler: SchedulerSpec
    cluster: ClusterConfig = ClusterConfig(64, 64)
    slowstart: float = 0.05
    record_tasks: bool = False
    preemption: bool = False
    #: ``"columnar"`` runs :class:`ColumnarEngine`; ``"object"`` runs the
    #: reference :class:`SimulatorEngine`.  Outside the tests, its one
    #: user is the e2e benchmark's correctness check, which replays a
    #: cell with ``"object"`` and compares digests.  Part of the cache
    #: key, so a cache entry always names the engine that produced it.
    engine: str = "columnar"
    tag: Any = None

    def engine_config(self) -> dict[str, Any]:
        """Every engine knob that can change this task's result."""
        return {
            "map_slots": self.cluster.map_slots,
            "reduce_slots": self.cluster.reduce_slots,
            "slowstart": self.slowstart,
            "record_tasks": self.record_tasks,
            "preemption": self.preemption,
            "engine": self.engine,
        }


@dataclass
class SimOutcome:
    """One task's result, with its provenance."""

    task: SimTask
    result: SimulationResult
    #: True when the result was restored from the cache, not executed.
    cached: bool
    #: Content address of the run; None for uncacheable (inline) tasks.
    key: Optional[str]
    #: The deterministic per-run seed derived from the task's content.
    seed: int


def _derive_seed(trace_dig: str, scheduler_id: str, config_json: str) -> int:
    """Deterministic 63-bit seed from the task's content material."""
    h = blake2b(digest_size=8)
    for part in (trace_dig, scheduler_id, config_json):
        h.update(part.encode())
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "little") >> 1


def _execute(
    trace: Sequence[TraceJob], task: SimTask, seed: int, digest: bool
) -> SimulationResult:
    """Run one task in the current process."""
    recorder = DigestRecorder() if digest else None
    engine_cls = ColumnarEngine if task.engine == "columnar" else SimulatorEngine
    engine = engine_cls(
        task.cluster,
        task.scheduler.build(seed),
        min_map_percent_completed=task.slowstart,
        record_tasks=task.record_tasks,
        preemption=task.preemption,
        sanitizer=recorder,
    )
    result = engine.run(trace)
    if recorder is not None:
        result.event_digest = recorder.hexdigest()
    return result


# --------------------------------------------------------------------------- #
# worker-process plumbing
# --------------------------------------------------------------------------- #

#: One published trace: the path of its ``.simmr`` spill file.
_TraceSource = str

#: Per-worker source table (installed by the pool initializer) and the
#: traces already attached and decoded in this worker.  The mmaps are
#: pinned in ``_WORKER_OWNERS`` for the worker's lifetime — the decoded
#: jobs are views into them.
_WORKER_SOURCES: dict[str, _TraceSource] = {}
_WORKER_TRACES: dict[str, Sequence[TraceJob]] = {}
_WORKER_OWNERS: list[object] = []


def _init_worker(sources: dict[str, _TraceSource]) -> None:
    _WORKER_SOURCES.clear()
    _WORKER_SOURCES.update(sources)
    _WORKER_TRACES.clear()
    _WORKER_OWNERS.clear()


def _attach_file(path: str) -> Sequence[TraceJob]:
    from ..trace.binfmt import load_packed

    columns, jobs, _digest = load_packed(path)
    _WORKER_OWNERS.append(columns.owner)
    return jobs


def _worker_trace(trace_id: str) -> Sequence[TraceJob]:
    """The worker-local trace for ``trace_id``, attached and decoded once."""
    trace = _WORKER_TRACES.get(trace_id)
    if trace is None:
        trace = _attach_file(_WORKER_SOURCES[trace_id])
        _WORKER_TRACES[trace_id] = trace
    return trace


def _run_in_worker(item: tuple[int, SimTask, int, bool]) -> tuple[int, bytes]:
    index, task, seed, digest = item
    result = _execute(_worker_trace(task.trace_id), task, seed, digest)
    # Results travel back packed by ``result_to_bytes`` — the exact
    # bytes the cache would store — so a parallel result is structurally
    # identical to a cache restore of itself.  The JSON document is for
    # people and HTTP; both ends of this pipe are one machine.
    return index, result_to_bytes(result)


# --------------------------------------------------------------------------- #
# parent-side trace publication
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class FanoutStats:
    """How the last pool fan-out shipped its traces (perf accounting).

    ``payload_bytes`` counts the trace bytes that exist *once*, in the
    binary-packed spill files.  ``bytes_per_worker`` is what actually
    crosses each worker's process boundary via the pool initializer:
    the spill-file paths.
    """

    traces: int
    workers: int
    payload_bytes: int
    bytes_per_worker: int

    @property
    def total_shipped_bytes(self) -> int:
        """Bytes moved in total: the payload once + per-worker copies."""
        return self.payload_bytes + self.bytes_per_worker * self.workers

    def to_dict(self) -> dict[str, Any]:
        return {
            "traces": self.traces,
            "workers": self.workers,
            "payload_bytes": self.payload_bytes,
            "bytes_per_worker": self.bytes_per_worker,
            "total_shipped_bytes": self.total_shipped_bytes,
        }


#: Stats of the most recent pooled ``simulate_many`` fan-out in this
#: process (None when everything ran in-process).  Read via
#: :func:`last_fanout_stats`; benchmarks use this to pin the O(1)
#: shipping claim.
_LAST_FANOUT: Optional[FanoutStats] = None


def last_fanout_stats() -> Optional[FanoutStats]:
    """Shipping stats of this process's most recent pooled fan-out."""
    return _LAST_FANOUT


class _PublishedTraces:
    """Parent-side spill files for one pool's traces.

    Packs each trace once (binary format) under the digest the caller
    already computed, writes it to a temporary ``.simmr`` file, and
    deletes the files in :meth:`close` after the pool has exited.  Each
    worker's decode re-checks that digest against the bytes it maps.
    """

    def __init__(
        self,
        traces: Mapping[str, Sequence[TraceJob]],
        digests: Mapping[str, str],
        workers: int,
    ) -> None:
        from ..trace.binfmt import pack_columns

        self.sources: dict[str, _TraceSource] = {}
        self._files: list[str] = []
        payload_bytes = 0
        try:
            for trace_id, trace in traces.items():
                payload = pack_columns(
                    TraceColumns.from_trace(trace), digests[trace_id]
                )
                payload_bytes += len(payload)
                fd, path = tempfile.mkstemp(prefix="simmr-trace-", suffix=".simmr")
                # The path joins its cleanup owner before the write that
                # could fail part-way.
                self._files.append(path)
                with os.fdopen(fd, "wb") as fh:
                    fh.write(payload)
                self.sources[trace_id] = path
        except BaseException:
            # A failure publishing trace N must not strand the spill
            # files already written for traces 1..N-1: the context
            # manager is never entered, so clean up here.
            self.close()
            raise
        self.stats = FanoutStats(
            traces=len(self.sources),
            workers=workers,
            payload_bytes=payload_bytes,
            bytes_per_worker=len(pickle.dumps(self.sources)),
        )

    def close(self) -> None:
        for path in self._files:
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - already gone
                pass
        self._files.clear()

    def __enter__(self) -> "_PublishedTraces":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# the executor
# --------------------------------------------------------------------------- #

def simulate_many(
    traces: Mapping[str, Sequence[TraceJob]],
    tasks: Sequence[SimTask],
    *,
    workers: int = 0,
    cache: "ResultCache | str | Path | bool | None" = None,
    fresh: bool = False,
    digest: bool = True,
    progress: Optional[ProgressFn] = None,
) -> list[SimOutcome]:
    """Execute a batch of simulation tasks, reusing cached results.

    Parameters
    ----------
    traces:
        ``trace_id -> trace`` table; every task references one entry.
    workers:
        ``<= 1`` runs in-process (no pool); ``N > 1`` fans uncached
        tasks out over ``N`` worker processes.  Both paths produce
        event-digest-identical results.  Each trace reaches the
        workers once, as a ``.simmr`` spill file that every worker
        maps.
    cache:
        ``None``/``False`` disables caching; ``True`` opens the default
        cache file (:func:`~repro.parallel.cache.default_cache_path`);
        a path opens that file; an open :class:`ResultCache` is used
        as-is (and not closed).  Completed runs are committed one by
        one, so interruption never loses finished work.
    fresh:
        Ignore existing cache entries (every task re-executes) but still
        store the new results — a forced re-population.
    digest:
        Stream each run's events into a BLAKE2b fingerprint
        (``result.event_digest``); costs a few percent of throughput.
    progress:
        ``progress(done, total, outcome)`` called once per task as it
        completes (cache hits first, then executions in completion
        order).

    Returns outcomes in task order.
    """
    for task in tasks:
        if task.trace_id not in traces:
            raise ValueError(f"task references unknown trace_id {task.trace_id!r}")

    own_cache: Optional[ResultCache] = None
    if cache is True:
        cache = own_cache = ResultCache(default_cache_path())
    elif isinstance(cache, (str, Path)):
        cache = own_cache = ResultCache(cache)
    elif cache is False:
        cache = None

    try:
        return _simulate_many(
            traces, tasks, workers=workers, cache=cache, fresh=fresh,
            digest=digest, progress=progress,
        )
    finally:
        if own_cache is not None:
            own_cache.close()


def _simulate_many(
    traces: Mapping[str, Sequence[TraceJob]],
    tasks: Sequence[SimTask],
    *,
    workers: int,
    cache: Optional[ResultCache],
    fresh: bool,
    digest: bool,
    progress: Optional[ProgressFn],
    trace_digests: Optional[Mapping[str, str]] = None,
) -> list[SimOutcome]:
    """:func:`simulate_many` on an opened cache.  ``trace_digests``, when
    given, holds every trace's :func:`trace_digest` already computed by
    the caller (the service's request parser), so it is not recomputed."""
    global _LAST_FANOUT
    digests = trace_digests
    if digests is None:
        digests = {tid: trace_digest(trace) for tid, trace in traces.items()}

    total = len(tasks)
    done = 0
    outcomes: list[Optional[SimOutcome]] = [None] * total
    # (index, task, seed, key, scheduler_id) of each task left to run.
    pending: list[tuple[int, SimTask, int, Optional[str], str]] = []

    def finish(index: int, outcome: SimOutcome) -> None:
        nonlocal done
        outcomes[index] = outcome
        done += 1
        if progress is not None:
            progress(done, total, outcome)

    # Phase 1: content keys and deterministic seeds, then one cache
    # lookup for every cacheable task.
    for index, task in enumerate(tasks):
        trace_dig = digests[task.trace_id]
        config_text = config_json(task.engine_config())
        if task.scheduler.cacheable:
            scheduler_id = task.scheduler.identity()
            key = cache_key_from_json(trace_dig, scheduler_id, config_text)
        else:
            scheduler_id = f"inline:{task.scheduler.name}"
            key = None
        seed = _derive_seed(trace_dig, scheduler_id, config_text)
        pending.append((index, task, seed, key, scheduler_id))
    if cache is not None and not fresh:
        lookups = [p for p in pending if p[3] is not None]
        hits = cache.get_many([key for _, _, _, key, _ in lookups])
        for (index, task, seed, key, _), hit in zip(lookups, hits):
            if hit is not None:
                finish(index, SimOutcome(task, hit, cached=True, key=key, seed=seed))
        pending = [p for p in pending if outcomes[p[0]] is None]

    def store(
        task: SimTask,
        seed: int,
        key: Optional[str],
        scheduler_id: str,
        result: SimulationResult,
    ) -> SimOutcome:
        if key is not None and cache is not None:
            cache.put(
                key,
                result,
                trace_digest=digests[task.trace_id],
                scheduler_id=scheduler_id,
            )
        return SimOutcome(task, result, cached=False, key=key, seed=seed)

    # Phase 2: execute the misses.
    parallel = [p for p in pending if p[1].scheduler.cacheable]
    inline = [p for p in pending if not p[1].scheduler.cacheable]
    if workers > 1 and len(parallel) > 1:
        used_traces = {
            task.trace_id: traces[task.trace_id] for _, task, _, _, _ in parallel
        }
        ctx = multiprocessing.get_context()
        nproc = min(workers, len(parallel))
        with _PublishedTraces(used_traces, digests, nproc) as published:
            _LAST_FANOUT = published.stats
            with ctx.Pool(
                nproc, initializer=_init_worker, initargs=(published.sources,)
            ) as pool:
                items = [(i, task, seed, digest) for i, task, seed, _, _ in parallel]
                by_index = {p[0]: p[1:] for p in parallel}
                for index, payload in pool.imap_unordered(_run_in_worker, items):
                    finish(index, store(*by_index[index], result_from_bytes(payload)))
    else:
        inline = pending  # run everything in-process, in submission order
    for index, task, seed, key, scheduler_id in inline:
        result = _execute(traces[task.trace_id], task, seed, digest)
        finish(index, store(task, seed, key, scheduler_id, result))

    assert all(o is not None for o in outcomes)
    return outcomes  # type: ignore[return-value]
