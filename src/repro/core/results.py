"""Simulation outputs: per-job results and whole-run summaries.

The engine's "output log" (paper Figure 4).  :class:`SimulationResult`
carries everything the evaluation experiments need: per-job completion
times (Figure 5 accuracy), task-level records (Figures 1-3 progress plots
and duration CDFs), the deadline-exceeded utility metric (Figures 7-8),
and engine statistics (Figure 6 / the ">1M events per second" headline).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, make_dataclass
from typing import Iterable, Optional, Sequence

from .job import Job, TaskRecord

__all__ = ["JobResult", "SimulationResult", "job_results"]


@dataclass(frozen=True, slots=True)
class JobResult:
    """Immutable summary of one completed (or unfinished) job."""

    job_id: int
    name: str
    submit_time: float
    start_time: Optional[float]
    map_stage_end: Optional[float]
    completion_time: Optional[float]
    deadline: Optional[float]
    num_maps: int
    num_reduces: int

    @classmethod
    def from_job(cls, job: Job) -> "JobResult":
        return cls(
            job_id=job.job_id,
            name=job.name,
            submit_time=job.submit_time,
            start_time=job.start_time,
            map_stage_end=job.map_stage_end,
            completion_time=job.completion_time,
            deadline=job.deadline,
            num_maps=job.num_maps,
            num_reduces=job.num_reduces,
        )

    @property
    def duration(self) -> Optional[float]:
        """Completion time relative to submission (the paper's T_J)."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.submit_time

    @property
    def met_deadline(self) -> Optional[bool]:
        """Whether the job met its deadline; ``None`` if it had none."""
        if self.deadline is None or self.completion_time is None:
            return None
        return self.completion_time <= self.deadline

    def relative_deadline_exceeded(self) -> float:
        """``(T_J - D_J)/D_J`` if exceeded, else 0 (paper Section V-A)."""
        if self.deadline is None or self.completion_time is None or self.deadline <= 0:
            return 0.0
        over = self.completion_time - self.deadline
        return over / self.deadline if over > 0 else 0.0


#: :class:`JobResult`'s slot layout without the frozen ``__setattr__``:
#: its generated ``__init__`` stores each field directly, where the frozen
#: one calls ``object.__setattr__`` nine times (~1.4 us a job, against
#: ~0.3 us here with the relabelling below, on a 2-vCPU KVM host).
_JobResultSlots = make_dataclass(
    "_JobResultSlots",
    [(f.name, f.type) for f in fields(JobResult)],
    slots=True,
    eq=False,
    repr=False,
)


def job_results(*columns: Sequence) -> list[JobResult]:
    """One :class:`JobResult` per position of ``columns``, which hold
    the values of each field in field order (``job_id``, ``name``, ...).

    Each row is built in the unfrozen twin of ``JobResult`` and then
    relabelled as a ``JobResult``: the two classes have the same slots,
    so the objects are ordinary frozen ``JobResult`` instances, equal
    and hashing like ones built by the constructor.  The columns must
    have equal lengths; a shorter one silently ends the list.
    """
    rows = list(map(_JobResultSlots, *columns))
    for row in rows:
        row.__class__ = JobResult
    return rows


@dataclass(slots=True)
class SimulationResult:
    """Full output of one simulator run."""

    scheduler_name: str
    jobs: list[JobResult]
    task_records: list[TaskRecord]
    makespan: float
    events_processed: int
    wall_clock_seconds: float
    #: BLAKE2b fingerprint of the popped event stream (hex), set only by
    #: the sweep executor (:func:`repro.parallel.executor._execute`),
    #: which installs a ``DigestRecorder``; a run through ``simulate``
    #: or an engine leaves it ``None`` whatever observer it carried (read
    #: that observer's ``hexdigest()`` instead).  Two runs
    #: with equal digests scheduled the same tasks at the same times in
    #: the same order — the determinism contract's equality, and how the
    #: parallel sweep cache proves a restored result faithful.
    event_digest: Optional[str] = None
    #: Which engine produced the run: ``"kernel"``
    #: (:class:`~repro.core.kernel.ColumnarEngine`, either mode) or
    #: ``"object"`` (:class:`~repro.core.engine.SimulatorEngine`).
    #: ``None`` on results from before this field existed.
    engine_path: Optional[str] = None

    # Cached lookups -------------------------------------------------------
    _by_id: dict[int, JobResult] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._by_id = {j.job_id: j for j in self.jobs}

    def job(self, job_id: int) -> JobResult:
        """Result of the job with the given id."""
        return self._by_id[job_id]

    def completion_times(self) -> dict[int, float]:
        """Map from job id to absolute completion time (completed jobs)."""
        return {
            j.job_id: j.completion_time
            for j in self.jobs
            if j.completion_time is not None
        }

    def durations(self) -> dict[int, float]:
        """Map from job id to T_J = completion - submission."""
        return {j.job_id: j.duration for j in self.jobs if j.duration is not None}

    def relative_deadline_exceeded(self) -> float:
        """The paper's utility metric: sum over late jobs of (T-D)/D.

        Lower is better; the scheduler minimizing it "is a better candidate
        for a deadline-based scheduler" (Section V-A).
        """
        return sum(j.relative_deadline_exceeded() for j in self.jobs)

    def jobs_missed_deadline(self) -> list[JobResult]:
        """Jobs that finished after their deadline."""
        return [j for j in self.jobs if j.met_deadline is False]

    @property
    def events_per_second(self) -> float:
        """Engine throughput (events / wall second); inf for instant runs."""
        if self.wall_clock_seconds <= 0:
            return float("inf")
        return self.events_processed / self.wall_clock_seconds

    def task_records_for(self, job_id: int, kind: Optional[str] = None) -> list[TaskRecord]:
        """Task records of one job, optionally filtered to "map"/"reduce"."""
        return [
            r
            for r in self.task_records
            if r.job_id == job_id and (kind is None or r.kind == kind)
        ]

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterable[JobResult]:
        return iter(self.jobs)
