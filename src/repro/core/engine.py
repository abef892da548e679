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

Performance notes
-----------------
The hot loop works on raw ``(time, type, seq, job_id, task_index)``
tuples in a binary heap, ordered ``(time, type priority, insertion
seq)``, with no per-event object allocation.  Slot allocation has two
paths:

* **static-priority fast path** — policies that declare
  ``static_priority`` (FIFO, MaxEDF, MinEDF) are served from lazy
  per-kind job heaps keyed by ``Scheduler.priority_key``: O(log n) per
  dispatch.
* **dynamic path** — policies whose choice depends on mutable state
  (Fair, Capacity) are consulted through the paper's narrow
  ``choose_next_map_task`` / ``choose_next_reduce_task`` interface, with
  the eligible-job list rebuilt per dispatch.

Tests assert the two paths produce identical schedules for the static
policies.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Optional, Sequence

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


class _EngineBase:
    """Run settings and result scaffolding shared by both engines.

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
        The off path is the exact pre-sanitizer hot loop — zero per-event
        overhead (checked by ``benchmarks/bench_sanitizer_overhead.py``).
    sanitizer:
        An explicit :class:`~repro.sanitize.sanitizer.Sanitizer` instance
        (e.g. one collecting violations instead of raising, or carrying
        an event digest for divergence detection), or a
        :class:`~repro.sanitize.digest.DigestRecorder` — the one way to
        observe the popped event stream.  Implies ``sanitize``.
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


class SimulatorEngine(_EngineBase):
    """Replays a MapReduce workload trace under a scheduling policy.

    The constructor arguments are documented on :class:`_EngineBase`.
    """

    def __init__(self, cluster: ClusterConfig, scheduler: Scheduler, **kwargs: Any) -> None:
        super().__init__(cluster, scheduler, **kwargs)
        self._reset()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def run(self, trace: Sequence[TraceJob]) -> SimulationResult:
        """Simulate the full trace and return the run's results."""
        # These readings feed only the result's wall_clock_seconds /
        # events-per-second metric (paper Section IV-B); walltime is the
        # sanctioned site, no simulated timestamp derives from it.
        wall_start = perf_seconds()
        self._reset()
        push = self._push_event
        validate_dependencies(trace)
        for i, trace_job in enumerate(trace):
            self._jobs.append(Job(i, trace_job))
            if trace_job.depends_on is None:
                push(trace_job.submit_time, _JOB_ARR, i, -1)
            else:
                self._dependents.setdefault(trace_job.depends_on, []).append(i)

        heap = self._heap
        handlers = {
            _MAP_DEP: self._on_map_departure,
            _ALL_MAPS: self._on_all_maps_finished,
            _RED_DEP: self._on_reduce_departure,
            _JOB_DEP: self._on_job_departure,
            _JOB_ARR: self._on_job_arrival,
            _MAP_ARR: self._on_map_arrival,
            _RED_ARR: self._on_reduce_arrival,
        }
        jobs = self._jobs
        processed = 0
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.begin_run(self, trace)
            while heap:
                now, etype, seq, job_id, task_index = heappop(heap)
                processed += 1
                sanitizer.observe_pop(now, etype, seq, job_id, task_index)
                self._now = now
                handlers[etype](jobs[job_id], task_index, seq)
                sanitizer.observe_handled(self, jobs[job_id], etype)
        else:
            while heap:
                now, etype, seq, job_id, task_index = heappop(heap)
                processed += 1
                self._now = now
                handlers[etype](jobs[job_id], task_index, seq)
        self._events_processed = processed
        self._raise_if_stalled(jobs)
        if sanitizer is not None:
            sanitizer.end_run(self)
        return self._result(jobs, self._records, processed, wall_start, "object")

    # ------------------------------------------------------------------ #
    # internal state
    # ------------------------------------------------------------------ #

    def _reset(self) -> None:
        self._heap: list[tuple] = []
        self._seq = 0
        self._jobs: list[Job] = []
        self._job_q: list[Job] = []  # the paper's jobQ: submitted, not departed
        self._free_map_slots = self.cluster.map_slots
        self._free_reduce_slots = self.cluster.reduce_slots
        self._now = 0.0
        self._events_processed = 0
        self._records: list[TaskRecord] = []
        # Per-job list of reduce task indices running as infinite fillers.
        self._fillers: dict[int, list[int]] = {}
        # Workflow edges: parent job id -> ids submitted on its completion.
        self._dependents: dict[int, list[int]] = {}
        # Preemption bookkeeping: (job_id, kind) -> {index: (departure
        # event seq or None for fillers, start time, record or None)}.
        # Only maintained when preemption is enabled, keeping the default
        # hot path allocation-free.
        self._preempt = self.preemption
        self._running_tasks: dict[tuple[int, str], dict[int, tuple]] = {}
        # Fast-path heaps of (priority_key, job_id) for eligible jobs.
        self._fast = self.scheduler.static_priority
        self._map_heap: list[tuple] = []
        self._reduce_heap: list[tuple] = []

    def _push_event(self, time: float, etype: int, job_id: int, task_index: int) -> int:
        seq = self._seq
        heappush(self._heap, (time, etype, seq, job_id, task_index))
        self._seq += 1
        return seq

    # ------------------------------------------------------------------ #
    # eligibility
    # ------------------------------------------------------------------ #

    def _map_eligible(self, job: Job) -> bool:
        if job.state is not JobState.RUNNING or job.maps_dispatched >= job.num_maps:
            return False
        cap = job.wanted_map_slots
        return cap is None or job.maps_dispatched - job.maps_completed < cap

    def _reduce_eligible(self, job: Job) -> bool:
        if job.state is not JobState.RUNNING or job.reduces_dispatched >= job.num_reduces:
            return False
        if job.maps_completed < job.reduce_gate:
            return False
        cap = job.wanted_reduce_slots
        return cap is None or job.running_reduces < cap

    def _offer_map(self, job: Job) -> None:
        """(Re-)insert a job into the map fast-path heap if eligible."""
        if self._fast and not job.in_map_heap and self._map_eligible(job):
            job.in_map_heap = True
            heappush(self._map_heap, (job.sched_key, job.job_id))

    def _offer_reduce(self, job: Job) -> None:
        """(Re-)insert a job into the reduce fast-path heap if eligible."""
        if self._fast and not job.in_reduce_heap and self._reduce_eligible(job):
            job.in_reduce_heap = True
            heappush(self._reduce_heap, (job.sched_key, job.job_id))

    # ------------------------------------------------------------------ #
    # job lifecycle
    # ------------------------------------------------------------------ #

    def _on_job_arrival(self, job: Job, _ti: int, _seq: int) -> None:
        job.state = JobState.RUNNING
        # Precompute the reduce slow-start gate as a completed-maps count.
        job.reduce_gate = self.min_map_percent_completed * job.num_maps
        if job.num_maps == 0:
            # Degenerate map-less job: the map stage is trivially complete
            # at submission, so reduces behave like a first wave whose
            # shuffle starts immediately.
            job.map_stage_end = self._now
        self._job_q.append(job)
        self.scheduler.on_job_arrival(job, self._now, self.cluster)
        if self._fast:
            job.sched_key = self.scheduler.priority_key(job)
            self._offer_map(job)
            self._offer_reduce(job)
        if self._preempt:
            others = [j for j in self._job_q if j is not job]
            for victim, kind, count in self.scheduler.preemption_requests(
                job, others, self.cluster, self._free_map_slots, self._free_reduce_slots
            ):
                if victim.state is JobState.RUNNING and count > 0:
                    self._kill_tasks(victim, kind, count)
        self._allocate()

    def _on_job_departure(self, job: Job, _ti: int, _seq: int) -> None:
        # All bookkeeping happened synchronously in _maybe_depart; the
        # event exists so departures appear in the event stream (one of
        # the paper's seven event types).
        pass

    def _maybe_depart(self, job: Job) -> None:
        if job.is_complete and job.state is not JobState.COMPLETED:
            job.state = JobState.COMPLETED
            job.completion_time = self._now
            self._job_q.remove(job)
            self.scheduler.on_job_departure(job, self._now)
            self._push_event(self._now, _JOB_DEP, job.job_id, -1)
            for child_id in self._dependents.pop(job.job_id, []):
                child = self._jobs[child_id]
                self._push_event(
                    max(child.submit_time, self._now), _JOB_ARR, child_id, -1
                )

    # ------------------------------------------------------------------ #
    # map tasks
    # ------------------------------------------------------------------ #

    def _on_map_arrival(self, job: Job, index: int, _seq: int) -> None:
        duration = job.profile.map_duration(index)
        record = None
        if self.record_tasks:
            record = TaskRecord(
                kind="map", job_id=job.job_id, index=index, start=self._now,
                end=self._now + duration,
            )
            job.map_records.append(record)
            self._records.append(record)
        dep_seq = self._push_event(self._now + duration, _MAP_DEP, job.job_id, index)
        if self._preempt:
            self._running_tasks.setdefault((job.job_id, "map"), {})[index] = (
                dep_seq, self._now, record,
            )

    def _on_map_departure(self, job: Job, index: int, seq: int) -> None:
        if self._preempt:
            running = self._running_tasks.get((job.job_id, "map"))
            entry = running.get(index) if running else None
            if entry is None or entry[0] != seq:
                return  # stale departure of a preemption-killed attempt
            del running[index]
        job.maps_completed += 1
        self._free_map_slots += 1
        if job.map_stage_complete and job.map_stage_end is None:
            job.map_stage_end = self._now
            self._push_event(self._now, _ALL_MAPS, job.job_id, -1)
            if job.num_reduces == 0:
                self._maybe_depart(job)
        else:
            # Completing a map may lift the job back under its slot cap or
            # across the reduce slow-start threshold.
            self._offer_map(job)
        self._offer_reduce(job)
        self._allocate()

    def _on_all_maps_finished(self, job: Job, _ti: int, _seq: int) -> None:
        """Rewrite the job's infinite filler reduces to real durations.

        Each first-wave reduce task ``i`` now finishes at
        ``map_stage_end + first_shuffle[i] + reduce[i]``; its shuffle/
        reduce phase boundary is recorded for the progress experiments.
        """
        fillers = self._fillers.pop(job.job_id, None)
        if not fillers:
            return
        profile = job.profile
        running = self._running_tasks.get((job.job_id, "reduce")) if self._preempt else None
        for index in fillers:
            if self.shuffle_model is not None:
                shuffle_end = self._now + self._model_shuffle(job, index, True)
            else:
                shuffle_end = self._now + profile.first_shuffle_duration(index)
            end = shuffle_end + profile.reduce_duration(index)
            if self._preempt:
                entry = running.get(index) if running else None
                record = entry[2] if entry else None
            else:
                # Without preemption, indices are assigned sequentially,
                # so the index doubles as the record position.
                record = job.reduce_records[index] if self.record_tasks else None
            if record is not None:
                record.shuffle_end = shuffle_end
                record.end = end
            dep_seq = self._push_event(end, _RED_DEP, job.job_id, index)
            if self._preempt and entry is not None:
                running[index] = (dep_seq, entry[1], entry[2])

    def _model_shuffle(self, job: Job, index: int, first_wave: bool) -> float:
        """Price one shuffle through the pluggable model."""
        concurrent = self.cluster.reduce_slots - self._free_reduce_slots
        return self.shuffle_model.shuffle_duration(
            ShuffleContext(
                job=job,
                index=index,
                first_wave=first_wave,
                concurrent_shuffles=max(concurrent, 1),
            )
        )

    # ------------------------------------------------------------------ #
    # reduce tasks
    # ------------------------------------------------------------------ #

    def _on_reduce_arrival(self, job: Job, index: int, _seq: int) -> None:
        profile = job.profile
        if not job.map_stage_complete:
            # First wave, overlapping the map stage: an infinite filler
            # occupying the slot until ALL_MAPS_FINISHED rewrites it.
            record = None
            if self.record_tasks:
                record = TaskRecord(
                    kind="reduce", job_id=job.job_id, index=index,
                    start=self._now, first_wave=True,
                )
                job.reduce_records.append(record)
                self._records.append(record)
            self._fillers.setdefault(job.job_id, []).append(index)
            if self._preempt:
                self._running_tasks.setdefault((job.job_id, "reduce"), {})[index] = (
                    None, self._now, record,
                )
            return

        first_wave = job.map_stage_end is not None and self._now <= job.map_stage_end
        if self.shuffle_model is not None:
            shuffle = self._model_shuffle(job, index, first_wave)
        elif first_wave:
            shuffle = profile.first_shuffle_duration(index)
        else:
            shuffle = profile.typical_shuffle_duration(index)
        shuffle_end = self._now + shuffle
        end = shuffle_end + profile.reduce_duration(index)
        record = None
        if self.record_tasks:
            record = TaskRecord(
                kind="reduce", job_id=job.job_id, index=index, start=self._now,
                end=end, shuffle_end=shuffle_end, first_wave=first_wave,
            )
            job.reduce_records.append(record)
            self._records.append(record)
        dep_seq = self._push_event(end, _RED_DEP, job.job_id, index)
        if self._preempt:
            self._running_tasks.setdefault((job.job_id, "reduce"), {})[index] = (
                dep_seq, self._now, record,
            )

    def _on_reduce_departure(self, job: Job, index: int, seq: int) -> None:
        if self._preempt:
            running = self._running_tasks.get((job.job_id, "reduce"))
            entry = running.get(index) if running else None
            if entry is None or entry[0] != seq:
                return  # stale departure of a preemption-killed attempt
            del running[index]
        job.reduces_completed += 1
        self._free_reduce_slots += 1
        self._maybe_depart(job)
        self._offer_reduce(job)
        self._allocate()

    # ------------------------------------------------------------------ #
    # slot allocation (the job-master decision loop)
    # ------------------------------------------------------------------ #

    def _dispatch_map(self, job: Job) -> None:
        self._free_map_slots -= 1
        if job.requeued_maps:
            index = job.requeued_maps.pop()
        else:
            index = job.next_map_index
            job.next_map_index += 1
        job.maps_dispatched += 1
        if job.start_time is None:
            job.start_time = self._now
        self._push_event(self._now, _MAP_ARR, job.job_id, index)

    def _dispatch_reduce(self, job: Job) -> None:
        self._free_reduce_slots -= 1
        if job.requeued_reduces:
            index = job.requeued_reduces.pop()
        else:
            index = job.next_reduce_index
            job.next_reduce_index += 1
        job.reduces_dispatched += 1
        if job.start_time is None:
            job.start_time = self._now
        self._push_event(self._now, _RED_ARR, job.job_id, index)

    def _kill_tasks(self, victim: Job, kind: str, count: int) -> int:
        """Preemption: kill up to ``count`` running tasks of ``victim``.

        Hadoop preempts by killing — the attempt's progress is lost and
        the task index returns to the pending pool to rerun from scratch.
        The youngest attempts are killed first (least work discarded).
        Returns the number of tasks actually killed.
        """
        running = self._running_tasks.get((victim.job_id, kind))
        if not running:
            return 0
        # Decorate-sort on the start time with a C-level key: stable
        # sort + reverse=True keeps equal-start attempts in dict
        # (insertion) order — exactly the order the old
        # ``key=lambda kv: -start`` ascending sort produced, so kill
        # order (and thus the event digest) is unchanged, minus the
        # per-item lambda call and tuple indexing.
        youngest_first = [
            (start, index, dep_seq, record)
            for index, (dep_seq, start, record) in running.items()
        ]
        youngest_first.sort(key=itemgetter(0), reverse=True)
        killed = 0
        for _start, index, dep_seq, record in youngest_first[:count]:
            del running[index]
            if record is not None:
                record.end = self._now
                record.killed = True
            if kind == "map":
                victim.maps_dispatched -= 1
                victim.requeued_maps.append(index)
                self._free_map_slots += 1
            else:
                victim.reduces_dispatched -= 1
                victim.requeued_reduces.append(index)
                self._free_reduce_slots += 1
                if dep_seq is None:
                    # A filler awaiting the map stage: cancel its rewrite.
                    filler_list = self._fillers.get(victim.job_id)
                    if filler_list and index in filler_list:
                        filler_list.remove(index)
            killed += 1
        if killed:
            # The victim regained headroom under its caps.
            self._offer_map(victim)
            self._offer_reduce(victim)
        return killed

    def _allocate(self) -> None:
        """Assign free slots to tasks as dictated by the scheduling policy."""
        if self._fast:
            self._allocate_static()
        else:
            self._allocate_dynamic()

    def _allocate_static(self) -> None:
        jobs = self._jobs
        heap = self._map_heap
        while self._free_map_slots > 0 and heap:
            job = jobs[heap[0][1]]
            if not self._map_eligible(job):
                heappop(heap)
                job.in_map_heap = False
                continue
            self._dispatch_map(job)
        heap = self._reduce_heap
        while self._free_reduce_slots > 0 and heap:
            job = jobs[heap[0][1]]
            if not self._reduce_eligible(job):
                heappop(heap)
                job.in_reduce_heap = False
                continue
            self._dispatch_reduce(job)

    def _allocate_dynamic(self) -> None:
        """The paper's narrow interface: ask the policy per free slot."""
        scheduler = self.scheduler
        while self._free_map_slots > 0:
            candidates = [j for j in self._job_q if self._map_eligible(j)]
            if not candidates:
                break
            job = scheduler.choose_next_map_task(candidates)
            if job is None:
                break
            self._dispatch_map(job)
        while self._free_reduce_slots > 0:
            candidates = [j for j in self._job_q if self._reduce_eligible(j)]
            if not candidates:
                break
            job = scheduler.choose_next_reduce_task(candidates)
            if job is None:
                break
            self._dispatch_reduce(job)


def simulate(
    trace: Sequence[TraceJob],
    scheduler: Scheduler,
    cluster: Optional[ClusterConfig] = None,
    *,
    engine: str = "columnar",
    **engine_kwargs: Any,
) -> SimulationResult:
    """One-shot convenience wrapper: build an engine and run ``trace``.

    ``engine`` selects the execution path: ``"columnar"`` (default)
    runs the vectorized kernel where it applies and transparently falls
    back to the object engine elsewhere; ``"object"`` forces the
    classic object-per-event loop (see ``docs/engine-internals.md``).
    Both paths produce bit-identical event digests.
    """
    if engine == "columnar":
        from .kernel import ColumnarEngine

        eng: Any = ColumnarEngine(cluster or ClusterConfig(), scheduler, **engine_kwargs)
    elif engine == "object":
        eng = SimulatorEngine(cluster or ClusterConfig(), scheduler, **engine_kwargs)
    else:
        raise ValueError(f"engine must be 'object' or 'columnar', got {engine!r}")
    return eng.run(trace)
