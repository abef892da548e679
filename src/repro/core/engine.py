"""SimMR Simulator Engine: a discrete-event emulation of the Hadoop job master.

The engine (paper Section III-B) replays a trace of
:class:`~repro.core.job.TraceJob` entries against a pluggable scheduling
policy.  It simulates at *task* granularity — which job's map/reduce task
occupies which slot, and when — and deliberately does not model
TaskTrackers, disks or the network; the per-task durations recorded in the
job profiles already embed those latencies.  That is the design decision
that lets SimMR "process over one million events per second" while the
heartbeat-level Mumak baseline (:mod:`repro.mumak`) is two orders of
magnitude slower.

Shuffle modeling
----------------
The engine reproduces the paper's key accuracy mechanism.  A reduce task
consists of a (combined) shuffle/sort phase followed by the reduce phase.
Reduce tasks of the *first wave* start while the map stage is still
running, so their shuffle overlaps the map stage and cannot finish before
the last map does.  The engine therefore schedules such a reduce task as a
"filler task of infinite duration and update[s] its duration to the first
shuffle duration when all the map tasks are complete" — i.e. on the
``ALL_MAPS_FINISHED`` event each first-wave reduce is assigned

    ``finish = map_stage_end + first_shuffle[i] + reduce[i]``

where ``first_shuffle`` holds the profile's *non-overlapping* first-wave
shuffle measurements.  Reduce tasks dispatched after the map stage has
completed use the *typical* shuffle durations instead.  Omitting this
mechanism is exactly what makes Mumak underestimate completion times
(paper Sections I and IV-A).

The heap loop
-------------
:meth:`_EngineBase._run_heap` is the one event loop of this package.  It
handles events in ``(time, type priority, insertion seq)`` order, the
seven event types in one inlined branch chain.  Task arrivals, which a
dispatch creates at the current instant with the two largest
priorities, wait in two FIFOs (maps, then reduces) of ``(seq, job_id,
task_index)``; every other event is a raw ``(time, type, seq, job_id,
task_index)`` tuple on a binary heap, and a heap event at the current
instant pops before the FIFOs drain.  What varies between runs is only
how a free slot is given to a job (``decide``):

* ``"static"`` — policies that declare ``static_priority`` (FIFO,
  MaxEDF, MinEDF) are served from lazy per-kind job heaps keyed by
  ``Scheduler.priority_key``: O(log n) per dispatch.
* ``"choose"`` — the paper's narrow interface: the eligible-job list is
  rebuilt per dispatch and handed to ``choose_next_map_task`` /
  ``choose_next_reduce_task``.
* ``"share"`` — group-share policies
  (:class:`~repro.schedulers.base.ShareSchedulerMixin`) decide from the
  per-group share levels and candidate keys of a :class:`_ShareBook`.

Tests assert ``"static"`` and ``"choose"`` produce identical schedules
for the static policies.

:class:`SimulatorEngine` runs the loop with ``"static"`` or ``"choose"``
and is the reference every kernel contract is tested against;
:class:`~repro.core.kernel.ColumnarEngine` runs it with the contracts
(or its vectorized pass mode).  Workflow dependencies, live preemption
and a pluggable shuffle model are branches of the same loop.  An
installed observer (:class:`~repro.sanitize.digest.DigestRecorder`, or
the checking :class:`~repro.sanitize.sanitizer.Sanitizer`) is handed the
emitted event stream once, after the run.
"""

from __future__ import annotations

import math
import os
from collections import deque
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Optional, Sequence

import numpy as np

from .cluster import ClusterConfig
from .events import EventType
from .job import Job, JobState, TaskRecord, TraceJob, validate_dependencies
from .results import JobResult, SimulationResult
from .shuffle import ShuffleContext, ShuffleModel
from .walltime import elapsed_since, perf_seconds
from ..schedulers.base import Scheduler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sanitize.digest import DigestRecorder
    from ..sanitize.sanitizer import Sanitizer

__all__ = ["SimulatorEngine", "simulate"]

# Event-type priorities as ints for the hot loops (shared with the kernel).
_MAP_DEP = int(EventType.MAP_TASK_DEPARTURE)
_ALL_MAPS = int(EventType.ALL_MAPS_FINISHED)
_RED_DEP = int(EventType.REDUCE_TASK_DEPARTURE)
_JOB_DEP = int(EventType.JOB_DEPARTURE)
_JOB_ARR = int(EventType.JOB_ARRIVAL)
_MAP_ARR = int(EventType.MAP_TASK_ARRIVAL)
_RED_ARR = int(EventType.REDUCE_TASK_ARRIVAL)

_INF = math.inf


def _cycled(arr: np.ndarray, n: int) -> np.ndarray:
    """``arr`` extended cyclically to length ``n`` (bit-exact copies).

    Mirrors :meth:`~repro.core.job.JobProfile.map_duration`'s
    deterministic ``index % size`` indexing as one vectorized operation.
    """
    if arr.size == n:
        return arr
    return np.resize(arr, n)


class _ShareSide:
    """One task kind's per-group decision state in a :class:`_ShareBook`.

    Per group: the set of its candidate jobs' keys, the sum of their
    running tasks of this kind, and its share ``level``, that sum over
    the group's weight (``inf`` for a group without candidates or
    budget).  A job's key is its rank, or ``running * n + rank`` when
    the policy ranks by running tasks first, so the best job of a group
    is the set's ``min``, kept as ``best[g]``, and the rank is the key
    ``% n``.  ``lo`` is the least level.  ``run[r]`` is what rank ``r``
    adds to its group's sum, -1 when it is not a candidate; ``live``
    counts the candidates over all groups.  :meth:`sync` pays for
    ``best`` and ``lo``, so :meth:`pick` and :meth:`keeps`, which run
    far more often since a departure can skip the sync, read them.
    """

    __slots__ = ("kind_map", "rank", "group", "weight", "paying", "budgeted", "n",
                 "by_running", "sets", "best", "sums", "level", "lo", "run", "key", "live")

    def __init__(self, book: "_ShareBook", kind_map: bool, by_running: bool) -> None:
        self.kind_map = kind_map
        self.rank = book.rank
        self.group = book.group
        self.weight = book.weight
        self.paying = book.paying  # shared: charges update it in place
        self.budgeted = book.budgeted
        self.n = n = len(book.group)
        self.by_running = by_running
        self.sets: list[set[int]] = [set() for _ in book.weight]
        self.best = [-1] * len(book.weight)
        self.sums = [0] * len(book.weight)
        self.level = [_INF] * len(book.weight)
        self.lo = _INF
        self.run = [-1] * n
        self.key = list(range(n))
        self.live = 0

    def sync(self, job: Job) -> None:
        """Re-derive ``job``'s candidacy and running count on this side."""
        run = -1
        if job.state is JobState.RUNNING:
            if self.kind_map:
                if job.maps_dispatched < job.num_maps:
                    run = job.maps_dispatched - job.maps_completed
                    cap = job.wanted_map_slots
                    if cap is not None and run >= cap:
                        run = -1
            elif (
                job.reduces_dispatched < job.num_reduces
                and job.maps_completed >= job.reduce_gate
            ):
                run = job.reduces_dispatched - job.reduces_completed
                cap = job.wanted_reduce_slots
                if cap is not None and run >= cap:
                    run = -1
        r = self.rank[job.job_id]
        old = self.run[r]
        if run == old:
            return
        self.run[r] = run
        g = self.group[r]
        cs = self.sets[g]
        total = self.sums[g]
        if old >= 0:
            cs.discard(self.key[r])
            total -= old
        else:
            self.live += 1
        if run >= 0:
            k = r
            if self.by_running:
                k = self.key[r] = run * self.n + r
            cs.add(k)
            total += run
        else:
            self.live -= 1
        self.sums[g] = total
        if cs:
            self.best[g] = min(cs)
        self.level[g] = total / self.weight[g] if cs and self.paying[g] else _INF
        self.lo = min(self.level)

    def keeps(self, job: Job) -> bool:
        """Whether :meth:`pick` would choose ``job`` once one of its
        running tasks of this kind is gone, read without writing.

        Answers only for a candidate with a running task whose paying
        group's level stays finite; False otherwise (the caller then
        syncs and picks).  The departure leaves the job's group at
        ``(sum - 1) / weight`` and, ranking by running tasks, the job's
        key ``n`` lower; nothing else changes.
        """
        r = self.rank[job.job_id]
        if self.run[r] <= 0:
            return False
        g = self.group[r]
        if not self.paying[g]:
            return False
        d = (self.sums[g] - 1) / self.weight[g]
        if not d < _INF:
            return False  # overflowed: pick's all-tie branch decides
        key = self.key[r] - self.n if self.by_running else r
        best = self.best
        if key > best[g]:
            return False
        # The group's own entry holds its old level, sum / weight >= d,
        # so a minimum below d is another group's.
        lo = self.lo
        if lo > d:
            return True
        if lo != d:
            return False
        for h, x in enumerate(self.level):
            if x == d and h != g and best[h] < key:
                return False
        return True

    def pick(self) -> int:
        """Rank of the job the policy picks; -1 for none.

        ``min`` over groups of ``(level, best job key)``: the group with
        the least share wins outright, and groups tied on share compare
        their best jobs' keys.
        """
        level = self.level
        best = self.best
        d = self.lo
        if d < _INF:
            if level.count(d) == 1:
                return best[level.index(d)] % self.n
            return min([best[g] for g, x in enumerate(level) if x == d]) % self.n
        # Every paying group with candidates has a share that overflowed
        # to inf (a tiny weight): they all tie.
        heads = [b for b, cs, paying in zip(best, self.sets, self.paying) if cs and paying]
        if heads:
            return min(heads) % self.n
        if not self.budgeted:
            return -1
        # No candidate's group is paying: best-effort FIFO over all.
        ranks = [k % self.n for cs in self.sets for k in cs]
        return min(ranks) if ranks else -1


class _ShareBook:
    """Decision state for a group-share policy in replay mode.

    Serves policies carrying :class:`~repro.schedulers.base.
    ShareSchedulerMixin`.  Jobs are numbered by *rank*, their
    ``(submit_time, job_id)`` order, so the policy's within-group job key
    is one int: the rank itself, or ``running * n + rank`` when the
    policy ranks by running tasks first.  One :class:`_ShareSide` per
    task kind (``maps``, ``reduces``) sums running tasks over each
    group's candidates only, as the policy's ``choose_next_*`` sums over
    its candidates.  :meth:`_ShareSide.sync` re-derives one job's part
    of that state in place; the heap loop calls it as its ``offer_*``:
    at arrival, after each dispatch, at a map departure (the map side,
    and the reduce side only when the slow-start gate is crossed), at a
    reduce departure and after kills.  A task departure whose freed
    slot :meth:`_ShareSide.keeps` says goes straight back to its job
    skips both its own sync and the dispatch's (the two cancel) and
    syncs only when that dispatch used up the job's tasks of the kind;
    the loop then charges through :meth:`charge_map` /
    :meth:`charge_reduce` as the picks do.  Job departures need no
    call: a departing job has dispatched every task, so it is a
    candidate of neither kind already.  A decision reads the least
    level and the winning group's least key (not the job queue), and
    the allocation skips a side whose ``live`` count is zero.
    """

    __slots__ = ("rank", "by_rank", "group", "names", "weight", "paying",
                 "budgeted", "charge", "mdl", "tsl", "rdl", "maps", "reduces")

    def __init__(
        self,
        scheduler: Scheduler,
        jobs: list[Job],
        mdl: list[list[float]],
        tsl: list[list[float]],
        rdl: list[list[float]],
    ) -> None:
        n = len(jobs)
        order = sorted(range(n), key=lambda i: (jobs[i].submit_time, i))
        self.rank = [0] * n
        self.by_rank = [jobs[i] for i in order]
        group_of = getattr(scheduler, "share_group")
        names: dict[str, int] = {}
        self.group = []
        for r, i in enumerate(order):
            self.rank[i] = r
            self.group.append(names.setdefault(group_of(jobs[i]), len(names)))
        self.names = list(names)
        weight_of = getattr(scheduler, "share_weight")
        self.weight = [weight_of(name) for name in self.names]
        paying_of = getattr(scheduler, "share_paying")
        self.paying = [bool(paying_of(name)) for name in self.names]
        self.budgeted = bool(getattr(scheduler, "share_budgeted", False))
        self.charge = getattr(scheduler, "share_charge")
        self.mdl = mdl
        self.tsl = tsl
        self.rdl = rdl
        by_running = bool(getattr(scheduler, "share_rank_by_running", False))
        self.maps = _ShareSide(self, True, by_running)
        self.reduces = _ShareSide(self, False, by_running)

    def _charge(self, r: int, slot_seconds: float) -> None:
        """Charge rank ``r``'s group for its granted task, if paying."""
        g = self.group[r]
        if self.paying[g] and not self.charge(self.names[g], slot_seconds):
            # Spent: the group competes no more (a broke group is never
            # charged again, so it never pays again).
            self.paying[g] = False
            for side in (self.maps, self.reduces):
                side.level[g] = _INF
                side.lo = min(side.level)

    def charge_map(self, job: Job) -> None:
        """Charge ``job``'s group for the map about to be dispatched."""
        jid = job.job_id
        self._charge(self.rank[jid], self.mdl[jid][job.maps_dispatched])

    def charge_reduce(self, job: Job) -> None:
        """Charge ``job``'s group for the reduce about to be dispatched."""
        jid = job.job_id
        index = job.reduces_dispatched
        self._charge(self.rank[jid], self.tsl[jid][index] + self.rdl[jid][index])

    def pick_map(self) -> Optional[Job]:
        """The job whose next map the policy dispatches."""
        r = self.maps.pick()
        if r < 0:
            return None
        job = self.by_rank[r]
        if self.budgeted:
            self.charge_map(job)
        return job

    def pick_reduce(self) -> Optional[Job]:
        """The job whose next reduce the policy dispatches."""
        r = self.reduces.pick()
        if r < 0:
            return None
        job = self.by_rank[r]
        if self.budgeted:
            self.charge_reduce(job)
        return job


class _EngineBase:
    """Run settings, the heap loop and result scaffolding of both engines.

    Parameters
    ----------
    cluster:
        Aggregate map/reduce slot capacity.
    scheduler:
        The pluggable policy.
    min_map_percent_completed:
        Fraction of a job's map tasks that must have completed before its
        reduce tasks become eligible for scheduling (the paper's
        ``minMapPercentCompleted`` user parameter; default 0.05 mirrors
        Hadoop's ``mapred.reduce.slowstart.completed.maps``).
    record_tasks:
        When True (default) every simulated task attempt is recorded in
        the result, enabling the progress-plot and duration-CDF
        experiments.  Disable for maximum event throughput on huge traces.
    preemption:
        Let the policy's ``preemption_requests`` kill running tasks when
        a job arrives.
    shuffle_model:
        Optional pluggable shuffle model (paper future work: network-
        simulator integration).  None replays the profile durations.
    sanitize:
        Three-state switch for the runtime sanitizer (``simsan``):
        ``True`` forces it on, ``False`` forces it off, ``None`` (the
        default) defers to the ``SIMMR_SANITIZE`` environment variable.
        The sanitizer checks the run's emitted event stream once the run
        ends, on whichever path the run takes; the off path pays one
        untaken branch per event (checked by
        ``benchmarks/bench_sanitizer_overhead.py``).
    sanitizer:
        An explicit run observer: a
        :class:`~repro.sanitize.sanitizer.Sanitizer` (e.g. one collecting
        violations instead of raising, or carrying an event digest for
        divergence detection), or a
        :class:`~repro.sanitize.digest.DigestRecorder`, which only
        fingerprints the stream — the one way to see it.  Implies
        ``sanitize``.
    """

    def __init__(
        self,
        cluster: ClusterConfig,
        scheduler: Scheduler,
        *,
        min_map_percent_completed: float = 0.05,
        record_tasks: bool = True,
        preemption: bool = False,
        shuffle_model: "ShuffleModel | None" = None,
        sanitize: Optional[bool] = None,
        sanitizer: "Sanitizer | DigestRecorder | None" = None,
    ) -> None:
        if not 0.0 <= min_map_percent_completed <= 1.0:
            raise ValueError(
                "min_map_percent_completed must be in [0, 1], got "
                f"{min_map_percent_completed}"
            )
        self.cluster = cluster
        self.scheduler = scheduler
        self.min_map_percent_completed = min_map_percent_completed
        self.record_tasks = record_tasks
        self.preemption = preemption
        self.shuffle_model = shuffle_model
        if sanitizer is None:
            if sanitize is None:
                sanitize = os.environ.get("SIMMR_SANITIZE", "") not in (
                    "", "0", "false", "False",
                )
            if sanitize:
                from ..sanitize.sanitizer import Sanitizer as _Sanitizer

                sanitizer = _Sanitizer()
        elif sanitize is False:
            sanitizer = None
        #: The active runtime sanitizer, or None for the unchecked path.
        self.sanitizer = sanitizer

    @staticmethod
    def _raise_if_stalled(jobs: Sequence[Job]) -> None:
        """Fail a run whose event stream drained with jobs unfinished."""
        stuck = [j for j in jobs if j.state is not JobState.COMPLETED]
        if stuck:
            names = ", ".join(f"{j.job_id}:{j.name}" for j in stuck[:5])
            more = "..." if len(stuck) > 5 else ""
            raise RuntimeError(
                f"simulation stalled with {len(stuck)} unfinished job(s) "
                f"({names}{more}): the cluster cannot run their tasks (e.g. "
                "reduce tasks with zero reduce slots) or the policy never "
                "schedules them"
            )

    def _result(
        self,
        jobs: Sequence[Job],
        records: list[TaskRecord],
        processed: int,
        wall_start: float,
        engine_path: str,
    ) -> SimulationResult:
        """Assemble a finished run's :class:`SimulationResult`."""
        wall = elapsed_since(wall_start)
        makespan = max(
            (j.completion_time for j in jobs if j.completion_time is not None),
            default=0.0,
        )
        return SimulationResult(
            scheduler_name=self.scheduler.name,
            jobs=[JobResult.from_job(j) for j in jobs],
            task_records=records,
            makespan=makespan,
            events_processed=processed,
            wall_clock_seconds=wall,
            engine_path=engine_path,
        )

    def _run_heap(
        self, trace: Sequence[TraceJob], decide: str, engine_path: str
    ) -> SimulationResult:
        """Replay ``trace`` through the event heap; ``decide`` picks jobs.

        ``decide`` is one of ``"static"``, ``"choose"`` or ``"share"``
        (see the module docstring).  The loop's per-event costs are kept
        low:

        * handlers are inlined into one branch chain ordered by event
          frequency (no dict dispatch, no bound-method calls);
        * task arrivals skip the heap: a dispatch appends to a map or
          reduce arrival FIFO, drained while no heap event is due at
          the current instant (docs/engine-internals.md gives the order
          argument);
        * nothing is counted per event: every event takes one ``seq``
          when pushed and pops exactly once, so the final ``seq`` is
          ``events_processed``;
        * per-task durations come from cyclic duration *lists*
          precomputed per job, not the profile accessors;
        * a map departure re-offers its job's reduces only when it
          crosses the slow-start gate, the one way it changes them;
        * in share mode, a task departure that frees the only free slot
          of its kind asks the book whether the slot goes straight back
          to its job (:meth:`_ShareSide.keeps`, read-only); if so it
          dispatches the job without the sync, pick and re-sync that
          would cancel out (docs/engine-internals.md, "A freed slot
          stays with its job");
        * an observer costs four list appends per event; it gets the
          popped stream as four flat columns once, after the run.

        Preemption kills the youngest attempts first.  A killed attempt's
        orphaned departure event still pops (counted and digested) and is
        recognized by its stale sequence number.
        """
        wall_start = perf_seconds()
        validate_dependencies(trace)
        scheduler = self.scheduler
        cluster = self.cluster
        mmpc = self.min_map_percent_completed
        san = self.sanitizer
        observing = san is not None
        preempt = self.preemption
        # The checker places kills from the task records.
        record_tasks = self.record_tasks or (preempt and observing and san.needs_records)
        model = self.shuffle_model
        n = len(trace)
        jobs = [Job(i, tj) for i, tj in enumerate(trace)]

        # Cyclic per-task duration lists: the profile accessors'
        # ``index % size`` lookup, amortized to one list index per event.
        mdl: list[list[float]] = [[]] * n
        fsl: list[list[float]] = [[]] * n
        tsl: list[list[float]] = [[]] * n
        rdl: list[list[float]] = [[]] * n
        for i, job in enumerate(jobs):
            profile = job.profile
            if job.num_maps:
                mdl[i] = _cycled(profile.map_durations, job.num_maps).tolist()
            if job.num_reduces:
                fsl[i] = _cycled(
                    profile.effective_first_shuffle_durations, job.num_reduces
                ).tolist()
                tsl[i] = _cycled(
                    profile.effective_typical_shuffle_durations, job.num_reduces
                ).tolist()
                rdl[i] = _cycled(profile.reduce_durations, job.num_reduces).tolist()

        # One JOB_ARRIVAL per job without a parent, numbered in trace
        # order; a dependent job arrives when its parent departs.
        heap: list[tuple[float, int, int, int, int]] = []
        dependents: dict[int, list[int]] = {}
        for i, tj in enumerate(trace):
            if tj.depends_on is None:
                heap.append((tj.submit_time, _JOB_ARR, len(heap), i, -1))
            else:
                dependents.setdefault(tj.depends_on, []).append(i)
        heapify(heap)
        seq_c = len(heap)

        free_m = cluster.map_slots
        free_r = cluster.reduce_slots
        job_q: list[Job] = []  # the paper's jobQ: submitted, not departed
        fillers: dict[int, list[int]] = {}
        # (job_id -> {index: (dep_seq | None for fillers, start, record)}),
        # one dict per task kind; kept only with preemption enabled.
        _RT = dict[int, tuple[Optional[int], float, Optional[TaskRecord]]]
        rt_map: dict[int, _RT] = {}
        rt_red: dict[int, _RT] = {}
        records: list[TaskRecord] = []
        fast = decide == "static"
        mheap: list[tuple[tuple, int]] = []
        rheap: list[tuple[tuple, int]] = []
        share: Optional[_ShareBook] = None
        if decide == "share":
            share = _ShareBook(scheduler, jobs, mdl, tsl, rdl)

        ev_t: list[float] = []
        ev_e: list[int] = []
        ev_j: list[int] = []
        ev_k: list[int] = []
        app_t = ev_t.append
        app_e = ev_e.append
        app_j = ev_j.append
        app_k = ev_k.append

        push = heappush
        _RUNNING = JobState.RUNNING
        # Task arrivals as (seq, job_id, index): dispatched at the
        # current instant, popped from these FIFOs instead of the heap.
        map_q: deque[tuple[int, int, int]] = deque()
        red_q: deque[tuple[int, int, int]] = deque()
        map_arrivals = map_q.append
        reduce_arrivals = red_q.append
        next_map = map_q.popleft
        next_reduce = red_q.popleft

        # offer_*: called wherever a job's candidacy or running count may
        # have changed; the static heaps re-admit the job lazily.
        def offer_map(job: Job) -> None:
            if fast and not job.in_map_heap:
                if job.state is not _RUNNING or job.maps_dispatched >= job.num_maps:
                    return
                cap = job.wanted_map_slots
                if cap is not None and job.maps_dispatched - job.maps_completed >= cap:
                    return
                job.in_map_heap = True
                push(mheap, (job.sched_key, job.job_id))

        def offer_reduce(job: Job) -> None:
            if fast and not job.in_reduce_heap:
                if (
                    job.state is not _RUNNING
                    or job.reduces_dispatched >= job.num_reduces
                    or job.maps_completed < job.reduce_gate
                ):
                    return
                cap = job.wanted_reduce_slots
                if (
                    cap is not None
                    and job.reduces_dispatched - job.reduces_completed >= cap
                ):
                    return
                job.in_reduce_heap = True
                push(rheap, (job.sched_key, job.job_id))

        if share is not None:
            offer_map = share.maps.sync  # type: ignore[assignment]
            offer_reduce = share.reduces.sync  # type: ignore[assignment]

        def price_shuffle(job: Job, index: int, first_wave: bool) -> float:
            """One shuffle through the pluggable model."""
            return model.shuffle_duration(  # type: ignore[union-attr]
                ShuffleContext(
                    job=job,
                    index=index,
                    first_wave=first_wave,
                    concurrent_shuffles=max(cluster.reduce_slots - free_r, 1),
                )
            )

        def maybe_depart(job: Job, now: float) -> None:
            nonlocal seq_c
            if job.is_complete and job.state is not JobState.COMPLETED:
                job.state = JobState.COMPLETED
                job.completion_time = now
                job_q.remove(job)
                scheduler.on_job_departure(job, now)
                push(heap, (now, _JOB_DEP, seq_c, job.job_id, -1))
                seq_c += 1
                for child in dependents.pop(job.job_id, ()):
                    push(heap, (max(jobs[child].submit_time, now), _JOB_ARR, seq_c, child, -1))
                    seq_c += 1

        def kill_tasks(victim: Job, kind_map: bool, count: int, now: float) -> None:
            nonlocal free_m, free_r
            vid = victim.job_id
            running = rt_map.get(vid) if kind_map else rt_red.get(vid)
            if not running:
                return
            # Stable reverse sort on start time: youngest attempts are
            # killed first, equal starts in dict (insertion) order.
            youngest_first = [
                (start, index, dep_seq, record)
                for index, (dep_seq, start, record) in running.items()
            ]
            youngest_first.sort(key=itemgetter(0), reverse=True)
            killed = 0
            for _start, index, dep_seq, record in youngest_first[:count]:
                del running[index]
                if record is not None:
                    record.end = now
                    record.killed = True
                if kind_map:
                    victim.maps_dispatched -= 1
                    victim.requeued_maps.append(index)
                    free_m += 1
                else:
                    victim.reduces_dispatched -= 1
                    victim.requeued_reduces.append(index)
                    free_r += 1
                    if dep_seq is None:
                        # A filler awaiting the map stage: cancel its rewrite.
                        filler_list = fillers.get(vid)
                        if filler_list and index in filler_list:
                            filler_list.remove(index)
                killed += 1
            if killed:
                offer_map(victim)
                offer_reduce(victim)

        def dispatch(job: Job, now: float, kind_map: bool) -> None:
            nonlocal free_m, free_r, seq_c
            jid = job.job_id
            if kind_map:
                free_m -= 1
                if job.requeued_maps:
                    index = job.requeued_maps.pop()
                else:
                    index = job.next_map_index
                    job.next_map_index = index + 1
                job.maps_dispatched += 1
                if job.start_time is None:
                    job.start_time = now
                map_arrivals((seq_c, jid, index))
            else:
                free_r -= 1
                if job.requeued_reduces:
                    index = job.requeued_reduces.pop()
                else:
                    index = job.next_reduce_index
                    job.next_reduce_index = index + 1
                job.reduces_dispatched += 1
                if job.start_time is None:
                    job.start_time = now
                reduce_arrivals((seq_c, jid, index))
            seq_c += 1

        def allocate_static(now: float) -> None:
            while free_m > 0 and mheap:
                job = jobs[mheap[0][1]]
                cap = job.wanted_map_slots
                if (
                    job.state is not _RUNNING
                    or job.maps_dispatched >= job.num_maps
                    or (
                        cap is not None
                        and job.maps_dispatched - job.maps_completed >= cap
                    )
                ):
                    heappop(mheap)
                    job.in_map_heap = False
                    continue
                dispatch(job, now, True)
            while free_r > 0 and rheap:
                job = jobs[rheap[0][1]]
                cap = job.wanted_reduce_slots
                if (
                    job.state is not _RUNNING
                    or job.reduces_dispatched >= job.num_reduces
                    or job.maps_completed < job.reduce_gate
                    or (
                        cap is not None
                        and job.reduces_dispatched - job.reduces_completed >= cap
                    )
                ):
                    heappop(rheap)
                    job.in_reduce_heap = False
                    continue
                dispatch(job, now, False)

        def allocate_choose(now: float) -> None:
            # The paper's narrow interface: ask the policy per free slot.
            while free_m > 0:
                candidates = []
                for job in job_q:
                    cap = job.wanted_map_slots
                    if job.maps_dispatched < job.num_maps and (
                        cap is None or job.maps_dispatched - job.maps_completed < cap
                    ):
                        candidates.append(job)
                if not candidates:
                    break
                job = scheduler.choose_next_map_task(candidates)
                if job is None:
                    break
                dispatch(job, now, True)
            while free_r > 0:
                candidates = []
                for job in job_q:
                    cap = job.wanted_reduce_slots
                    if (
                        job.reduces_dispatched < job.num_reduces
                        and job.maps_completed >= job.reduce_gate
                        and (
                            cap is None
                            or job.reduces_dispatched - job.reduces_completed < cap
                        )
                    ):
                        candidates.append(job)
                if not candidates:
                    break
                job = scheduler.choose_next_reduce_task(candidates)
                if job is None:
                    break
                dispatch(job, now, False)

        def allocate_share(now: float) -> None:
            # One group scan per dispatch (see _ShareBook), none for a
            # side without candidates; the dispatch changed the job's
            # running count, so re-offer it.
            while free_m > 0 and share_m.live:
                job = pick_map()
                if job is None:
                    break
                dispatch(job, now, True)
                offer_map(job)
            while free_r > 0 and share_r.live:
                job = pick_reduce()
                if job is None:
                    break
                dispatch(job, now, False)
                offer_reduce(job)

        # A departure whose freed slot goes straight back to its job
        # skips the share book's sync-pick-sync (share mode only).
        keeps_m = keeps_r = None
        if fast:
            allocate = allocate_static
        elif share is not None:
            share_m = share.maps
            share_r = share.reduces
            pick_map = share.pick_map
            pick_reduce = share.pick_reduce
            keeps_m = share_m.keeps
            keeps_r = share_r.keeps
            budgeted = share.budgeted
            charge_map = share.charge_map
            charge_reduce = share.charge_reduce
            allocate = allocate_share
        else:
            allocate = allocate_choose

        record: Optional[TaskRecord]
        now = 0.0
        while True:
            # Task arrivals wait in their FIFOs, all at ``now``; a heap
            # event at ``now`` pops first, maps drain before reduces
            # (see docs/engine-internals.md for why this is heap order).
            if map_q or red_q:
                if heap and heap[0][0] <= now:
                    now, etype, seq, jid, ti = heappop(heap)
                elif map_q:
                    seq, jid, ti = next_map()
                    etype = _MAP_ARR
                else:
                    seq, jid, ti = next_reduce()
                    etype = _RED_ARR
            elif heap:
                now, etype, seq, jid, ti = heappop(heap)
            else:
                break
            job = jobs[jid]
            if observing:
                app_t(now)
                app_e(etype)
                app_j(jid)
                app_k(ti)
            if etype == _MAP_DEP:
                if preempt:
                    running = rt_map.get(jid)
                    entry = running.get(ti) if running else None
                    if entry is None or entry[0] != seq:
                        continue  # stale departure of a killed attempt
                    del running[ti]  # type: ignore[union-attr]
                done = job.maps_completed + 1
                job.maps_completed = done
                free_m += 1
                if done >= job.num_maps and job.map_stage_end is None:
                    job.map_stage_end = now
                    push(heap, (now, _ALL_MAPS, seq_c, jid, -1))
                    seq_c += 1
                    if job.num_reduces == 0:
                        maybe_depart(job, now)
                elif free_m == 1 and keeps_m is not None and keeps_m(job):
                    # The freed slot goes straight back to this job: the
                    # departure's sync, the pick and the re-sync would
                    # leave the book as it is (docs/engine-internals.md).
                    if budgeted:
                        charge_map(job)
                    dispatch(job, now, True)
                    if job.maps_dispatched >= job.num_maps:
                        offer_map(job)
                else:
                    offer_map(job)
                # Only crossing the slow-start gate changes the job's
                # reduce candidacy.
                if done - 1 < job.reduce_gate <= done:
                    offer_reduce(job)
                allocate(now)
            elif etype == _MAP_ARR:
                end = now + mdl[jid][ti]
                record = None
                if record_tasks:
                    record = TaskRecord(
                        kind="map", job_id=jid, index=ti, start=now, end=end
                    )
                    job.map_records.append(record)
                    records.append(record)
                push(heap, (end, _MAP_DEP, seq_c, jid, ti))
                if preempt:
                    d_map = rt_map.get(jid)
                    if d_map is None:
                        d_map = {}
                        rt_map[jid] = d_map
                    d_map[ti] = (seq_c, now, record)
                seq_c += 1
            elif etype == _RED_DEP:
                if preempt:
                    running = rt_red.get(jid)
                    entry = running.get(ti) if running else None
                    if entry is None or entry[0] != seq:
                        continue  # stale departure of a killed attempt
                    del running[ti]  # type: ignore[union-attr]
                job.reduces_completed += 1
                free_r += 1
                if (
                    free_r == 1
                    and keeps_r is not None
                    and (free_m == 0 or not share_m.live)
                    and keeps_r(job)
                ):
                    # As at a map departure; no map is due first, and a
                    # job with a reduce left to run does not depart.
                    if budgeted:
                        charge_reduce(job)
                    dispatch(job, now, False)
                    if job.reduces_dispatched >= job.num_reduces:
                        offer_reduce(job)
                else:
                    maybe_depart(job, now)
                    offer_reduce(job)
                    allocate(now)
            elif etype == _RED_ARR:
                if job.maps_completed < job.num_maps:
                    # First wave overlapping the map stage: an infinite
                    # filler, rewritten by ALL_MAPS_FINISHED.
                    record = None
                    if record_tasks:
                        record = TaskRecord(
                            kind="reduce", job_id=jid, index=ti, start=now,
                            first_wave=True,
                        )
                        job.reduce_records.append(record)
                        records.append(record)
                    fl = fillers.get(jid)
                    if fl is None:
                        fillers[jid] = [ti]
                    else:
                        fl.append(ti)
                    if preempt:
                        d_red = rt_red.get(jid)
                        if d_red is None:
                            d_red = {}
                            rt_red[jid] = d_red
                        d_red[ti] = (None, now, record)
                else:
                    mse = job.map_stage_end
                    first_wave = mse is not None and now <= mse
                    if model is not None:
                        shuffle = price_shuffle(job, ti, first_wave)
                    else:
                        shuffle = fsl[jid][ti] if first_wave else tsl[jid][ti]
                    shuffle_end = now + shuffle
                    end = shuffle_end + rdl[jid][ti]
                    record = None
                    if record_tasks:
                        record = TaskRecord(
                            kind="reduce", job_id=jid, index=ti, start=now,
                            end=end, shuffle_end=shuffle_end,
                            first_wave=first_wave,
                        )
                        job.reduce_records.append(record)
                        records.append(record)
                    push(heap, (end, _RED_DEP, seq_c, jid, ti))
                    if preempt:
                        d_red = rt_red.get(jid)
                        if d_red is None:
                            d_red = {}
                            rt_red[jid] = d_red
                        d_red[ti] = (seq_c, now, record)
                    seq_c += 1
            elif etype == _ALL_MAPS:
                # Rewrite the job's infinite fillers to real durations:
                # each first-wave reduce finishes at
                # map_stage_end + first_shuffle[i] + reduce[i].
                fl2 = fillers.pop(jid, None)
                if fl2:
                    fs_j = fsl[jid]
                    rd_j = rdl[jid]
                    running = rt_red.get(jid) if preempt else None
                    for index in fl2:
                        if model is not None:
                            shuffle_end = now + price_shuffle(job, index, True)
                        else:
                            shuffle_end = now + fs_j[index]
                        end = shuffle_end + rd_j[index]
                        if preempt:
                            entry = running.get(index) if running else None
                            record = entry[2] if entry else None
                        else:
                            # Without preemption, indices are assigned
                            # in order: the index is the record position.
                            entry = None
                            record = (
                                job.reduce_records[index] if record_tasks else None
                            )
                        if record is not None:
                            record.shuffle_end = shuffle_end
                            record.end = end
                        push(heap, (end, _RED_DEP, seq_c, jid, index))
                        if preempt and entry is not None:
                            running[index] = (  # type: ignore[index]
                                seq_c, entry[1], entry[2],
                            )
                        seq_c += 1
            elif etype == _JOB_ARR:
                job.state = _RUNNING
                # The reduce slow-start gate as a completed-maps count.
                job.reduce_gate = mmpc * job.num_maps
                if job.num_maps == 0:
                    # Map-less job: the map stage is trivially complete,
                    # so reduces behave like a first wave.
                    job.map_stage_end = now
                job_q.append(job)
                scheduler.on_job_arrival(job, now, cluster)
                if fast:
                    job.sched_key = scheduler.priority_key(job)
                offer_map(job)
                offer_reduce(job)
                if preempt:
                    others = [j for j in job_q if j is not job]
                    for victim, vkind, count in scheduler.preemption_requests(
                        job, others, cluster, free_m, free_r
                    ):
                        if victim.state is _RUNNING and count > 0:
                            kill_tasks(victim, vkind == "map", count, now)
                allocate(now)
            # else: _JOB_DEP — bookkeeping already done in maybe_depart;
            # the event exists so departures appear in the event stream.

        # A stall drains the heap too: the observer gets the popped
        # prefix before the run fails.
        if observing:
            san.observe(
                self, jobs, records if record_tasks else None, ev_t, ev_e, ev_j, ev_k
            )
        self._raise_if_stalled(jobs)
        if not self.record_tasks:
            records = []  # kept for the checker only
        # Every event took one ``seq`` when pushed and has popped.
        return self._result(jobs, records, seq_c, wall_start, engine_path)


class SimulatorEngine(_EngineBase):
    """Replays a MapReduce workload trace under a scheduling policy.

    The reference engine: every run goes through the heap loop, static
    policies through their priority heaps and every other policy through
    ``choose_next_map_task`` / ``choose_next_reduce_task``.  The
    constructor arguments are documented on :class:`_EngineBase`.
    """

    def run(self, trace: Sequence[TraceJob]) -> SimulationResult:
        """Simulate the full trace and return the run's results."""
        decide = "static" if self.scheduler.static_priority else "choose"
        return self._run_heap(trace, decide, "object")


def simulate(
    trace: Sequence[TraceJob],
    scheduler: Scheduler,
    cluster: Optional[ClusterConfig] = None,
    **engine_kwargs: Any,
) -> SimulationResult:
    """One-shot convenience wrapper: run ``trace`` on a fresh
    :class:`~repro.core.kernel.ColumnarEngine` — the vectorized pass mode
    where it applies, else the heap loop with the policy's kernel
    contract or its ``choose_next_*`` (see ``docs/engine-internals.md``).
    ``engine_kwargs`` go to the engine's constructor.
    """
    from .kernel import ColumnarEngine

    return ColumnarEngine(cluster or ClusterConfig(), scheduler, **engine_kwargs).run(trace)
