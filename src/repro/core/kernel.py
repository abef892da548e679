"""Columnar simulation kernel: wave-batched replay over contiguous buffers.

:class:`ColumnarEngine` is the high-throughput counterpart of
:class:`~repro.core.engine.SimulatorEngine`.  Both run the one heap loop
(:meth:`~repro.core.engine._EngineBase._run_heap`), which pops one event
at a time — seven event types, one branch per pop.  The kernel's **pass
mode** exploits the structure of the static-priority schedule to avoid
materialising most of those events:

* **decision points only.**  With a static-priority policy, no
  preemption and no slot caps, the schedule is fully determined by job
  arrivals, reduce slow-start gate crossings, and slot releases.  The
  kernel keeps a heap of slot releases per task kind, and resolves each
  map/reduce *dispatch* with a constant-time chain step
  (``start = max(slot_release, availability)``) instead of a
  ``MAP_TASK_ARRIVAL``/``MAP_TASK_DEPARTURE`` event pair.
* **columnar wave math.**  Per-job completion data is derived with
  vectorized numpy reductions over the contiguous duration buffers that
  :class:`~repro.core.columns.TraceColumns` hands out as zero-copy
  views: map-wave finish times are ``starts + durations`` on the whole
  vector, the map-stage end is a single ``max`` reduction, the reduce
  slow-start gate is an ``np.lexsort`` order statistic, and first-wave
  reduce completion times are one fused ``(mse + first_shuffle) +
  reduce`` vector expression.
* **bit-identical event streams.**  When an observer is attached (a
  :class:`~repro.sanitize.digest.DigestRecorder`, or the checking
  :class:`~repro.sanitize.sanitizer.Sanitizer`), the kernel rebuilds
  the full event stream from the passes' run-wide dispatch columns: one
  block per event type, each already in the order of its heap
  tie-break, concatenated in type priority and ordered by one stable
  sort on time — the heap's ``(time, type, seq)`` order — and hands the
  four columns to the observer, as the heap loop does.  The stream is
  byte-for-byte the one the heap loop produces (see
  ``docs/engine-internals.md``), so the digest matches and the
  sanitizer checks what pass mode emitted.
* **one map side for many runs.**  The map side of a run — the map
  dispatch log with its finish times, each job's map-stage end and its
  final map — is a pure function (:func:`_map_side`) of the map slots,
  the arrival order, the priority keys, the map durations and the
  submits.  Slow-start and reduce slots stay outside it: maps never
  wait on a reduce, and the slow-start gate only reads the map
  departures, so each run derives its gate from the stored map side.
  A one-entry memo keeps the last map side; a sweep's slow-start cells,
  and cells that differ only in reduce slots, run the map chain once.
  The memo holds read-only arrays and tuples, and its key is bit-exact:
  the submits as their ``<f8`` bytes (``-0.0 == 0.0``, yet the chain
  starts a job at its submit's bit pattern) and the profiles'
  ``durations_digest``.

Pass mode covers static-priority runs without live preemption, slot
caps, zero-time tasks, a pluggable shuffle model, workflow dependencies
or reduces on a cluster without reduce slots
(:meth:`ColumnarEngine._passes_apply`; a cap is seen only when an
arrival hook sets it, in :meth:`ColumnarEngine._run_kernel`).  Every
other run takes **replay mode**: the heap loop, deciding each
dispatch through the policy's kernel contract — the static priority
heaps or the group-share
:class:`~repro.schedulers.base.ShareSchedulerMixin` (Fair,
DynamicPriority, Capacity) — and through ``choose_next_*`` for a policy
no contract covers (Flex, compiled dynamic policy trees).
``ColumnarEngine`` is always safe to use;
:attr:`ColumnarEngine.last_kernel_mode` reports which mode a run took.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush, heapreplace
from typing import Any, NamedTuple, Optional, Sequence

import numpy as np

from .cluster import ClusterConfig
from .columns import TraceColumns
from .engine import (
    _ALL_MAPS,
    _JOB_ARR,
    _JOB_DEP,
    _MAP_ARR,
    _MAP_DEP,
    _RED_ARR,
    _RED_DEP,
    _EngineBase,
    _cycled,
)
from .job import Job, JobState, TaskRecord, TraceJob
from .results import RecordColumns, SimulationResult
from .walltime import perf_seconds
from ..schedulers.base import Scheduler

__all__ = ["ColumnarEngine"]

_INF = math.inf
_EMPTY = np.empty(0)


class _KJob:
    """Per-job kernel state: the gate and the reduce side's wave data."""

    __slots__ = (
        "job", "idx", "submit", "M", "R", "key",
        # map side, copied from the run's :class:`_MapSide`
        "mse", "fm",
        # reduce slow-start gate
        "gate_count", "gate_time", "gate_etype", "gate_tie",
        # reduce side
        "tsl", "rdl", "fel", "fs_np", "ts_np", "rd_np",
        "rdispatched", "maxend", "maxend_i",
        "completion_time",
    )

    def __init__(self, job: Job, idx: int, gate_count: int) -> None:
        self.job = job
        self.idx = idx
        self.submit = job.submit_time
        self.M = job.num_maps
        self.R = job.num_reduces
        self.key = (job.sched_key, idx)
        self.mse = _INF
        self.fm = -1
        self.gate_count = gate_count
        self.gate_time: Optional[float] = None
        self.gate_etype = _JOB_ARR
        self.gate_tie = idx
        self.tsl = self.rdl = self.fel = None
        self.fs_np = self.ts_np = self.rd_np = None
        self.rdispatched = 0
        self.maxend = -_INF
        self.maxend_i = -1
        self.completion_time: Optional[float] = None


class _DispatchLog:
    """Run-wide dispatch columns of one task kind, in global dispatch order.

    A pass appends each dispatch's start to :attr:`starts` and each
    stretch of consecutive dispatches of one job to :attr:`runs` as
    ``(job, first task, count)``; a dispatch's sequence number is its
    position in :attr:`starts`.  :meth:`freeze` expands the runs into numpy columns
    indexed by sequence number (``start``, ``job``, ``task``, ``pos``)
    plus ``seq_of``, the inverse map from a job-major task position
    (``offsets[job] + task``) back to the sequence number, and drops the
    two lists.  Within a job task ``i`` is its ``i``-th dispatch, and
    dispatch starts never decrease (each chain step takes the earliest
    slot release).
    """

    __slots__ = (
        "starts", "runs", "start", "job", "task", "pos", "seq_of", "offsets",
        # derived by the kernel: finish/end times; reduce-only columns
        "end", "stage_end", "shuffle_end", "first_wave", "filler",
    )

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.runs: list[tuple[int, int, int]] = []

    def freeze(self, sizes: Sequence[int]) -> None:
        """Build the columns; ``sizes[j]`` is job ``j``'s task count."""
        n = len(self.starts)
        self.start = np.asarray(self.starts, dtype=np.float64)
        jobs, first, counts = np.asarray(self.runs, dtype=np.int64).reshape(-1, 3).T
        del self.starts, self.runs
        self.job = np.repeat(jobs, counts)
        # A run's seqs seq0 + i are its tasks task0 + i: task = seq - shift.
        shift = np.cumsum(counts) - counts - first
        self.task = np.arange(n, dtype=np.int64) - np.repeat(shift, counts)
        ends = np.cumsum(sizes, dtype=np.int64)
        self.offsets = ends - np.asarray(sizes, dtype=np.int64)
        self.pos = self.offsets[self.job] + self.task
        self.seq_of = np.full(int(ends[-1]) if len(ends) else 0, -1, dtype=np.int64)
        self.seq_of[self.pos] = np.arange(n, dtype=np.int64)

    def first_start(self, idx: int) -> float:
        """Start of job ``idx``'s first dispatch (task 0)."""
        return float(self.start[self.seq_of[self.offsets[idx]]])


class _MapSide(NamedTuple):
    """The map side of a pass-mode run, as :func:`_map_side` returns it.

    ``log`` is the frozen map :class:`_DispatchLog` with ``end``;
    ``dep`` lists the map dispatch seqs job-major, each job's in the
    pop order of its departures, ``(end, seq)``; ``mse`` and ``fm`` hold
    each job's map-stage end and the seq of its final map departure
    (its submit and -1 for a job without maps).  Every array is
    read-only: one value serves every run the memo hands it to.
    """

    log: _DispatchLog
    dep: np.ndarray
    mse: tuple[float, ...]
    fm: tuple[int, ...]


def _map_side(
    map_slots: int,
    order: Sequence[int],
    keys: Sequence[tuple],
    durations: Sequence[Optional[np.ndarray]],
    submits: Sequence[float],
) -> _MapSide:
    """The map pass and its wave reduction, as a pure function.

    ``order`` is the arrival order (trace indices by ``(submit,
    index)``), ``keys[j]`` job ``j``'s static priority key, ``durations[j]``
    its map durations cycled to its map count (``None`` without maps)
    and ``submits[j]`` its submit time.  No slow-start and no reduce
    slot enters: maps never wait on reduces.

    Uncapped dispatch is a slot-release chain loop: every free slot goes
    to the eligible job with the smallest ``(key, index)``, so each
    dispatch is one chain step, ``start = max(earliest slot release,
    submit)``.  The next-arrival boundary preserves the event heap's
    tie-breaking (a ``MAP_TASK_DEPARTURE`` at time *t* is handled before
    a ``JOB_ARRIVAL`` at *t*).  Finishes are then one column, and one
    lexsort orders each job's departures.
    """
    sizes = [0 if d is None else d.size for d in durations]
    mdls = [None if d is None else d.tolist() for d in durations]
    dispatched = [0] * len(sizes)
    log = _DispatchLog()
    pool = [0.0] * map_slots  # already a valid heap
    arrivals = [i for i in order if sizes[i]]
    n_arr = len(arrivals)
    ai = 0
    # (key, index): a tie on the key falls to the trace index.
    pending: list[tuple[tuple, int]] = []
    starts_append = log.starts.append
    runs_append = log.runs.append
    while True:
        while pending and dispatched[pending[0][1]] >= sizes[pending[0][1]]:
            heappop(pending)
        if not pending:
            if ai >= n_arr:
                break
            i = arrivals[ai]
            heappush(pending, (keys[i], i))
            ai += 1
            continue
        j = pending[0][1]
        a_j = submits[j]
        boundary = submits[arrivals[ai]] if ai < n_arr else _INF
        mdl = mdls[j]
        k = k0 = dispatched[j]
        limit = sizes[j]
        while k < limit:
            t0 = pool[0]
            start = t0 if t0 > a_j else a_j
            if start > boundary:
                break
            heapreplace(pool, start + mdl[k])
            starts_append(start)
            k += 1
        if k > k0:
            runs_append((j, k0, k - k0))
            dispatched[j] = k
        if k < limit:
            # Blocked by the arrival boundary: admit the next job.
            i = arrivals[ai]
            heappush(pending, (keys[i], i))
            ai += 1

    log.freeze(sizes)
    flat = np.concatenate([_EMPTY] + [d for d in durations if d is not None])
    log.end = log.start + flat[log.pos]
    dep = np.lexsort((np.arange(log.end.size), log.end, log.job))
    # Each job's last departure in pop order is its final map: the
    # latest finish, the later dispatch on a tie.
    mse = list(submits)
    fm = [-1] * len(sizes)
    with_maps = [j for j, m in enumerate(sizes) if m]
    last = dep[log.offsets[with_maps] + np.asarray(sizes, dtype=np.int64)[with_maps] - 1]
    for j, seq, t in zip(with_maps, last.tolist(), log.end[last].tolist()):
        mse[j] = t
        fm[j] = seq
    for arr in (log.start, log.job, log.task, log.pos, log.seq_of, log.offsets, log.end, dep):
        arr.flags.writeable = False
    return _MapSide(log, dep, tuple(mse), tuple(fm))


#: The last map side computed and its key: ``(key, _MapSide)`` or None.
#: One entry bounds what it holds; an in-process sweep runs its cells
#: grid-ordered, slow-starts innermost, so consecutive cells share a map
#: side.
_MAP_MEMO: Optional[tuple[tuple, _MapSide]] = None


def _memo_map_side(map_slots: int, jobs: Sequence[Job], order: Sequence[int]) -> _MapSide:
    """:func:`_map_side` of a run's jobs behind the one-entry memo.

    The key holds everything the map side reads, bit for bit: the map
    slots; the submits as their ``<f8`` bytes (``-0.0`` and ``0.0`` are
    equal floats but start a chain at different bit patterns, and the
    arrival order follows from them); each job's priority key, which
    enters only through comparisons, so equal keys give one schedule;
    and each job's map count and its profile's ``durations_digest``.
    Service worker threads share the memo, so a run reads its reference
    once: another thread may replace the entry between a check and a
    use, and each entry is read-only.
    """
    global _MAP_MEMO
    submits = [job.submit_time for job in jobs]
    keys = [job.sched_key for job in jobs]
    key = (
        map_slots,
        np.asarray(submits, dtype="<f8").tobytes(),
        tuple(keys),
        tuple((job.num_maps, job.profile.durations_digest) for job in jobs),
    )
    memo = _MAP_MEMO
    if memo is not None and memo[0] == key:
        return memo[1]
    side = _map_side(
        map_slots,
        order,
        keys,
        [_cycled(job.profile.map_durations, job.num_maps) if job.num_maps else None
         for job in jobs],
        submits,
    )
    _MAP_MEMO = (key, side)
    return side


class ColumnarEngine(_EngineBase):
    """Drop-in engine running the columnar kernel where it applies.

    Takes the constructor arguments of :class:`~repro.core.engine.
    SimulatorEngine`; :meth:`run` additionally accepts a
    :class:`~repro.core.columns.TraceColumns` directly (the kernel
    consumes the zero-copy duration views it hands out).

    After :meth:`run`, :attr:`last_path` is ``"kernel"`` and
    :attr:`last_kernel_mode` names the mode the run took.
    """

    def __init__(self, cluster: ClusterConfig, scheduler: Scheduler, **kwargs: Any) -> None:
        super().__init__(cluster, scheduler, **kwargs)
        self.last_path: Optional[str] = None
        #: Which mode the last run used: ``"passes"`` (vectorized
        #: multi-pass, see :meth:`_passes_apply`) or ``"replay"`` (the
        #: heap loop, deciding through the policy's kernel contract).
        self.last_kernel_mode: Optional[str] = None

    # ------------------------------------------------------------------ #
    # envelope
    # ------------------------------------------------------------------ #

    @staticmethod
    def _preemption_inert(scheduler: Scheduler) -> bool:
        """True when ``preemption=True`` provably cannot kill anything.

        A scheduler that never overrides
        :meth:`~repro.schedulers.base.Scheduler.preemption_requests`
        (or was built with ``preemptive=False``) always answers with no
        kill requests, so the run's event stream is identical to the
        non-preemptive one and the fast pass-mode kernel stays valid.
        """
        if type(scheduler).preemption_requests is Scheduler.preemption_requests:
            return True
        return getattr(scheduler, "preemptive", None) is False

    @staticmethod
    def _contract_covers(scheduler: Scheduler) -> bool:
        """True when the share contract vouches for the dynamic decision.

        The contract hook ``share_group`` describes the ``choose_next_*``
        of the class defining it.  A subclass that overrides
        ``choose_next_*`` without restating the hook makes a decision the
        share book would not reproduce, so it is not covered and is asked
        through ``choose_next_*``.
        """
        if not getattr(scheduler, "share_capable", False):
            return False
        mro = type(scheduler).__mro__

        def depth(name: str) -> int:
            return next(
                (i for i, cls in enumerate(mro) if name in cls.__dict__), len(mro)
            )

        return all(
            depth(name) >= depth("share_group")
            for name in ("choose_next_map_task", "choose_next_reduce_task")
        )

    @staticmethod
    def _has_instant_tasks(trace: Sequence[TraceJob]) -> bool:
        """Whether a task of ``trace`` may take zero time (conservatively).

        Pass mode emits the event stream by sorting it, which reproduces
        the heap's pop order only while every handler pushes events that
        sort after the one it handles.  A zero-time task breaks that: its
        departure, pushed by its own arrival at the same instant, pops
        ahead of arrivals queued before it.  Such runs take replay mode,
        which runs the heap itself.

        A positive duration that float addition absorbs (``t + d == t``)
        takes zero time too.  No event happens later than the last submit
        plus every task's longest duration run back to back, so a duration
        no larger than the float spacing at that horizon counts as zero.
        A horizon that overflows to infinity absorbs every duration (its
        spacing is NaN, so the comparison below reads "zero").  The sums
        are Python floats, which overflow to infinity without a warning.
        The extrema come cached per profile
        (:attr:`~repro.core.job.JobProfile.duration_extrema`), so the
        check costs O(jobs).
        """
        horizon = max((tj.submit_time for tj in trace), default=0.0)
        shortest = np.inf
        with_m = [tj.profile for tj in trace if tj.profile.num_maps]
        if with_m:
            ext = [p.duration_extrema for p in with_m]
            shortest = min(e[0] for e in ext)
            horizon += sum(p.num_maps for p in with_m) * max(e[1] for e in ext)
        with_r = [tj.profile for tj in trace if tj.profile.num_reduces]
        if with_r:
            ext = [p.duration_extrema for p in with_r]
            shortest = min(shortest, min(e[2] for e in ext) + min(e[4] for e in ext))
            horizon += sum(p.num_reduces for p in with_r) * (
                max(e[3] for e in ext) + max(e[5] for e in ext)
            )
        return not shortest > np.spacing(horizon)

    def _passes_apply(self, trace: Sequence[TraceJob]) -> bool:
        """Whether pass mode can lay out this static-priority run.

        Pass mode lays the schedule out from arrivals, gate crossings and
        slot releases, dispatching every task of a kind while a slot of
        that kind frees up, so it needs a schedule nothing else feeds: no
        live preemption, no zero-time tasks, no pluggable shuffle model
        (it prices each shuffle from the running state), no workflow
        dependencies, and no reduces on a cluster without reduce slots
        (the run stalls; ``ClusterConfig`` keeps at least one map slot).
        A slot cap is known only once an arrival hook sets it;
        :meth:`_run_kernel` checks for it there.  An observer does not
        matter: it reads the emitted stream after the run.
        """
        return not (
            (self.preemption and not self._preemption_inert(self.scheduler))
            or self.shuffle_model is not None
            or any(tj.depends_on is not None for tj in trace)
            or (
                self.cluster.reduce_slots <= 0
                and any(tj.profile.num_reduces for tj in trace)
            )
            or self._has_instant_tasks(trace)
        )

    def run(self, trace: Sequence[TraceJob] | TraceColumns) -> SimulationResult:
        """Simulate the trace: pass mode where it applies, else the heap loop."""
        if isinstance(trace, TraceColumns):
            trace = trace.jobs()
        self.last_path = "kernel"
        scheduler = self.scheduler
        if scheduler.static_priority:
            if self._passes_apply(trace):
                result = self._run_kernel(trace)
                if result is not None:
                    self.last_kernel_mode = "passes"
                    return result
            decide = "static"
        elif self._contract_covers(scheduler):
            decide = "share"
        else:
            decide = "choose"
        self.last_kernel_mode = "replay"
        return self._run_heap(trace, decide, "kernel")

    # ------------------------------------------------------------------ #
    # kernel
    # ------------------------------------------------------------------ #

    def _run_kernel(self, trace: Sequence[TraceJob]) -> Optional[SimulationResult]:
        """Pass mode; ``None`` as soon as an arrival hook sets a slot cap.

        The passes dispatch uncapped, and a cap (MinEDF's "wanted" slots,
        set from a job's deadline) is known only after ``on_job_arrival``.
        The heap loop then replays the run on fresh jobs, so the hooks of
        the short prefix run again; the static policies' hooks write only
        the job.
        """
        wall_start = perf_seconds()
        scheduler = self.scheduler
        cluster = self.cluster
        mmpc = self.min_map_percent_completed
        jobs = [Job(i, tj) for i, tj in enumerate(trace)]

        # Arrival processing order: (submit_time, trace index) — the pop
        # order of the object engine's JOB_ARRIVAL events.
        order = sorted(range(len(jobs)), key=lambda i: (jobs[i].submit_time, i))
        states: list[_KJob] = [None] * len(jobs)  # type: ignore[list-item]
        for i in order:
            job = jobs[i]
            job.state = JobState.RUNNING
            job.reduce_gate = mmpc * job.num_maps
            if job.num_maps == 0:
                job.map_stage_end = job.submit_time
            scheduler.on_job_arrival(job, job.submit_time, cluster)
            if job.wanted_map_slots is not None or job.wanted_reduce_slots is not None:
                return None
            job.sched_key = scheduler.priority_key(job)
            gate_val = job.reduce_gate
            gate_count = 0 if gate_val <= 0 else math.ceil(gate_val)
            states[i] = _KJob(job, i, gate_count)

        side = _memo_map_side(cluster.map_slots, jobs, order)
        maps = side.log
        for st in states:
            st.mse = side.mse[st.idx]
            st.fm = side.fm[st.idx]
        self._gates(states, side)
        reduces = _DispatchLog()
        self._reduce_pass_chain(self._build_gates(states), reduces)
        self._reduce_columns(states, reduces)

        # Every task ran: each job completes with its last map (no
        # reduces) or its last-ending reduce.
        completion_order: list[tuple[float, int]] = []
        for st in states:
            st.completion_time = st.maxend if st.R else st.mse
            job = st.job
            job.state = JobState.COMPLETED
            job.completion_time = st.completion_time
            job.map_stage_end = st.mse
            job.start_time = min(
                maps.first_start(st.idx) if st.M else _INF,
                reduces.first_start(st.idx) if st.R else _INF,
            )
            completion_order.append((st.completion_time, st.idx))

        # Departure hooks in completion order.  The static-priority
        # contract (constant priority_key) means the hook cannot feed
        # back into scheduling, so batching it here is observationally
        # identical for any conforming policy.
        completion_order.sort()
        for when, idx in completion_order:
            scheduler.on_job_departure(states[idx].job, when)

        processed = sum(
            2 + 2 * st.M + 2 * st.R + (1 if st.M else 0) for st in states
        )

        records: list[TaskRecord] | RecordColumns = []
        if self.record_tasks:
            records = self._build_records(maps, reduces)

        if self.sanitizer is not None:
            self.sanitizer.observe(
                self, jobs, records.rows() if self.record_tasks else None,
                *self._event_columns(states, maps, reduces, processed),
            )
        return self._result(jobs, records, processed, wall_start, "kernel")

    @staticmethod
    def _gates(states: list[_KJob], side: _MapSide) -> None:
        """Each job's reduce slow-start gate event, from the map side.

        The gate of a job with ``k > 0`` maps to wait for is its ``k``-th
        map departure in pop order, ``(end, seq)``; at slow-start 1 that
        is the final map departure, ``(mse, fm)``.  Map-less and
        zero-gate jobs become reduce-eligible at arrival.
        """
        gated = [st for st in states if st.M and st.gate_count]
        if gated:
            at = side.log.offsets[[st.idx for st in gated]] + [st.gate_count - 1 for st in gated]
            seqs = side.dep[at]
            for st, seq, t in zip(gated, seqs.tolist(), side.log.end[seqs].tolist()):
                st.gate_time = t
                st.gate_etype = _MAP_DEP
                st.gate_tie = seq
        for st in states:
            if st.M == 0 or st.gate_count == 0:
                st.gate_time = st.submit

    # ------------------------------------------------------------------ #
    # reduce pass
    # ------------------------------------------------------------------ #

    def _build_gates(self, states: list[_KJob]) -> list[_KJob]:
        """Jobs entering the reduce pass, sorted by gate event key.

        Precomputes each job's reduce-phase duration vectors and the
        fused first-wave completion expression ``(mse + first_shuffle) +
        reduce`` — one vectorized pass over the columnar views.
        """
        gated: list[_KJob] = []
        for st in states:
            if st.R == 0:
                continue
            profile = st.job.profile
            st.fs_np = _cycled(profile.effective_first_shuffle_durations, st.R)
            st.ts_np = _cycled(profile.effective_typical_shuffle_durations, st.R)
            st.rd_np = _cycled(profile.reduce_durations, st.R)
            st.tsl = st.ts_np.tolist()
            st.rdl = st.rd_np.tolist()
            st.fel = ((st.mse + st.fs_np) + st.rd_np).tolist()
            gated.append(st)
        gated.sort(key=lambda s: (s.gate_time, s.gate_etype, s.gate_tie))
        return gated

    def _reduce_pass_chain(self, gated: list[_KJob], log: _DispatchLog) -> None:
        """Uncapped reduce dispatch: chain loop over gate availability.

        Same structure as the map chain loop, with two twists: the
        availability event is the slow-start gate crossing (a
        ``MAP_TASK_DEPARTURE`` or the job's own arrival), and each
        dispatch classifies itself as filler / first-wave / typical by
        comparing its start against the map-stage end.
        """
        pool = [0.0] * self.cluster.reduce_slots
        n_arr = len(gated)
        ai = 0
        pending: list[tuple[tuple, int]] = []
        by_pos: dict[int, _KJob] = {}
        starts_append = log.starts.append
        runs_append = log.runs.append
        while True:
            while pending and by_pos[pending[0][1]].rdispatched >= by_pos[pending[0][1]].R:
                heappop(pending)
            if not pending:
                if ai >= n_arr:
                    break
                st = gated[ai]
                by_pos[ai] = st
                heappush(pending, (st.key, ai))
                ai += 1
                continue
            st = by_pos[pending[0][1]]
            g_j = st.gate_time
            if ai < n_arr:
                nxt = gated[ai]
                boundary, b_etype = nxt.gate_time, nxt.gate_etype
            else:
                boundary, b_etype = _INF, -1
            mse = st.mse
            fel = st.fel
            tsl = st.tsl
            rdl = st.rdl
            k = st.rdispatched
            limit = st.R
            maxend = st.maxend
            maxend_i = st.maxend_i
            while k < limit:
                t0 = pool[0]
                if t0 > g_j:
                    start = t0
                    # A RED_DEP release at the boundary time is handled
                    # before a JOB_ARRIVAL gate but after a MAP_DEP gate.
                    if start > boundary or (start == boundary and b_etype != _JOB_ARR):
                        break
                else:
                    start = g_j
                end = fel[k] if start <= mse else (start + tsl[k]) + rdl[k]
                heapreplace(pool, end)
                starts_append(start)
                if end >= maxend:
                    maxend = end
                    maxend_i = k
                k += 1
            st.maxend = maxend
            st.maxend_i = maxend_i
            if k > st.rdispatched:
                runs_append((st.idx, st.rdispatched, k - st.rdispatched))
                st.rdispatched = k
            if k < limit:
                st2 = gated[ai]
                by_pos[ai] = st2
                heappush(pending, (st2.key, ai))
                ai += 1

    # ------------------------------------------------------------------ #
    # derived outputs
    # ------------------------------------------------------------------ #

    def _reduce_columns(self, states: list[_KJob], reduces: _DispatchLog) -> None:
        """Reduce end, shuffle-end, first-wave and filler columns.

        Called once every job completed, so every reduce was dispatched
        and every reduce job has its duration vectors.  A reduce starting
        by its job's map-stage end ``mse`` (a filler if strictly before)
        shuffles until ``mse + first_shuffle``; a later one until
        ``start + typical_shuffle``.  Either way it ends at
        ``shuffle_end + reduce`` — the pass's own arithmetic, bit for bit.
        """
        reduces.freeze([st.R for st in states])
        with_r = [st for st in states if st.R]
        pos = reduces.pos
        start = reduces.start
        fs = np.concatenate([_EMPTY] + [st.fs_np for st in with_r])[pos]
        ts = np.concatenate([_EMPTY] + [st.ts_np for st in with_r])[pos]
        rd = np.concatenate([_EMPTY] + [st.rd_np for st in with_r])[pos]
        mse = np.asarray([st.mse for st in states], dtype=np.float64)[reduces.job]
        reduces.stage_end = mse
        reduces.first_wave = start <= mse
        reduces.filler = start < mse
        reduces.shuffle_end = np.where(reduces.first_wave, mse + fs, start + ts)
        reduces.end = reduces.shuffle_end + rd

    def _build_records(self, maps: _DispatchLog, reduces: _DispatchLog) -> RecordColumns:
        """Task records in the object engine's global append order, as
        the blocks of :class:`~repro.core.results.RecordColumns`.

        The engine appends one record per ``*_TASK_ARRIVAL`` pop, so the
        global order is ``(start, arrival-event type, dispatch seq)``:
        one stable sort by start over the map then reduce columns, each
        already in seq order.
        """
        n_maps = len(maps.start)
        n_reduces = len(reduces.start)
        is_reduce = np.repeat(np.array([0, 1], dtype=np.uint8), (n_maps, n_reduces))
        order = np.argsort(np.concatenate((maps.start, reduces.start)), kind="stable")
        ints = np.array(
            [np.concatenate((maps.job, reduces.job)), np.concatenate((maps.task, reduces.task))],
            dtype="<i8",
        )
        floats = np.array(
            [
                np.concatenate((maps.start, reduces.start)),
                np.concatenate((maps.end, reduces.end)),
                np.concatenate((np.zeros(n_maps), reduces.shuffle_end)),
            ],
            dtype="<f8",
        )
        flags = np.array(
            [
                is_reduce,
                1 - is_reduce,  # a map's shuffle_end is None
                np.concatenate((np.zeros(n_maps, dtype=np.uint8), reduces.first_wave)),
                np.zeros(n_maps + n_reduces, dtype=np.uint8),
            ],
            dtype=np.uint8,
        )
        return RecordColumns(blocks=(ints[:, order], floats[:, order], flags[:, order]))

    def _event_columns(
        self,
        states: list[_KJob],
        maps: _DispatchLog,
        reduces: _DispatchLog,
        processed: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Reconstruct the full event stream in heap pop order.

        Returns the ``(time, type, job, task)`` columns.

        The heap pops by ``(time, type, seq)``.  Each event type is laid
        out as one block already sorted by its own tie key, the blocks
        concatenated in type-priority order; a stable sort by time then
        yields exactly the heap order.  Map departures/arrivals and
        reduce arrivals tie on dispatch seq and job arrivals on trace
        index, so their blocks are sorted for free; the ALL_MAPS, reduce
        departure and job departure blocks, which tie on the event that
        pushed them, take one small sort each.  The heap pops in sorted
        order because in pass mode every handler pushes events that sort
        after its own (see ``docs/engine-internals.md``).  The stream is
        bit-identical to the object engine's pop sequence (asserted
        against the arithmetic event count).
        """
        # ALL_MAPS_FINISHED: pushed by the job's final map departure, so
        # it ties on that departure's seq, fm.
        with_m = [st for st in states if st.M]
        am_order = np.argsort([st.fm for st in with_m], kind="stable")
        am_time = np.asarray([st.mse for st in with_m], dtype=np.float64)[am_order]
        am_job = np.asarray([st.idx for st in with_m], dtype=np.int64)[am_order]

        # REDUCE_TASK_DEPARTURE: a filler's departure is pushed by its
        # job's ALL_MAPS pop at (mse, ALL_MAPS, fm), any other's by its own
        # RED_ARR pop at (start, RED_ARR, seq).  ALL_MAPS pops first at
        # equal times and the block is in seq order, so a stable sort on
        # (push time, fm for fillers / past every fm otherwise) orders it.
        filler = reduces.filler
        fm = np.asarray([st.fm for st in states], dtype=np.int64)
        rd_order = np.lexsort((
            np.where(filler, fm[reduces.job], len(maps.start)),
            np.where(filler, reduces.stage_end, reduces.start),
        ))

        # JOB_DEPARTURE: pushed by the departure that completes the job —
        # its final map (seq fm) if it has no reduces, else the reduce
        # ending last — so it ties on where that trigger sits in the
        # MAP_DEP block followed by the sorted RED_DEP block.
        rd_rank = np.empty_like(rd_order)
        rd_rank[rd_order] = np.arange(len(rd_order))
        has_r = np.asarray([st.R > 0 for st in states], dtype=bool)
        last = np.asarray([st.maxend_i for st in states], dtype=np.int64)[has_r]
        trigger = fm.copy()
        trigger[has_r] = len(maps.start) + rd_rank[
            reduces.seq_of[reduces.offsets[has_r] + last]
        ]
        jd_order = np.argsort(trigger, kind="stable")
        jd_time = np.asarray([st.completion_time for st in states], dtype=np.float64)

        n_jobs = len(states)
        job_ids = np.arange(n_jobs, dtype=np.int64)
        none = np.full(n_jobs, -1, dtype=np.int64)
        blocks = (  # (type, times, job ids, task indices), in type priority
            (_MAP_DEP, maps.end, maps.job, maps.task),
            (_ALL_MAPS, am_time, am_job, none[: len(am_job)]),
            (_RED_DEP, reduces.end[rd_order], reduces.job[rd_order], reduces.task[rd_order]),
            (_JOB_DEP, jd_time[jd_order], jd_order, none),
            (_JOB_ARR, np.asarray([st.submit for st in states], dtype=np.float64), job_ids, none),
            (_MAP_ARR, maps.start, maps.job, maps.task),
            (_RED_ARR, reduces.start, reduces.job, reduces.task),
        )
        t = np.concatenate([b[1] for b in blocks])
        if len(t) != processed:
            raise RuntimeError(
                f"columnar kernel event-count mismatch: emitted {len(t)}, "
                f"expected {processed}"
            )
        order = np.argsort(t, kind="stable")
        t = t[order]
        e = np.repeat(
            np.asarray([b[0] for b in blocks], dtype=np.int64), [len(b[1]) for b in blocks]
        )[order]
        jcol = np.concatenate([b[2] for b in blocks])[order]
        kcol = np.concatenate([b[3] for b in blocks])[order]
        return t, e, jcol, kcol
