"""Simulation outputs: per-job results and whole-run summaries.

The engine's "output log" (paper Figure 4).  :class:`SimulationResult`
carries everything the evaluation experiments need: per-job completion
times (Figure 5 accuracy), task-level records (Figures 1-3 progress plots
and duration CDFs), the deadline-exceeded utility metric (Figures 7-8),
and engine statistics (Figure 6 / the ">1M events per second" headline).

A result holds its jobs and task records as columns
(:class:`JobColumns`, :class:`RecordColumns`), in whichever form they
arrived: the objects a caller passed, one list of values per field (the
JSON reader, the engines), or the numpy blocks of the packed layout (the
bytes reader, the kernel's task records).  The other forms are built
from it on first use and kept.  ``result.jobs`` and
``result.task_records`` are such a form, so a reader that needs only a
few fields of every job (the sweep's cell summary, the codecs) never
builds a :class:`JobResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from .job import Job, TaskRecord

__all__ = ["JobColumns", "JobResult", "RecordColumns", "SimulationResult"]


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


def _values_of_rows(rows: Sequence[Any], names: tuple[str, ...]) -> list[list[Any]]:
    """``[[row.name for row in rows] for name in names]``, by transposing."""
    if not rows:
        return [[] for _ in names]
    return list(map(list, zip(*map(attrgetter(*names), rows))))


def _split_names(lengths: np.ndarray, names: str) -> list[str]:
    """``names`` cut into consecutive pieces of ``lengths`` code points."""
    ends = np.cumsum(lengths).tolist()
    return [names[start:end] for start, end in zip([0, *ends], ends)]


class _Columns:
    """Rows of one record type held in one of three forms, the others
    built from it on first use and kept:

    * ``rows`` — the row objects;
    * ``values`` — one list per field in field order, ``None`` where an
      optional value is absent;
    * ``blocks`` — the packed layout's numpy blocks (see the subclass).

    Pass exactly one form to the constructor.  The forms are views of
    one fact: do not mutate what one of them returns.
    """

    __slots__ = ("_rows", "_values", "_blocks")

    _ROW: type
    FIELDS: tuple[str, ...]

    def __init__(
        self,
        *,
        rows: Optional[list[Any]] = None,
        values: Optional[list[list[Any]]] = None,
        blocks: Optional[tuple[Any, ...]] = None,
    ) -> None:
        if (rows is None) + (values is None) + (blocks is None) != 2:
            raise TypeError("pass exactly one of rows, values and blocks")
        self._rows = rows
        self._values = values
        self._blocks = blocks

    def rows(self) -> list[Any]:
        """The row objects, built from the values on first use."""
        if self._rows is None:
            self._rows = list(map(self._ROW, *self.values()))
        return self._rows

    def values(self) -> list[list[Any]]:
        """One list per field, in :attr:`FIELDS` order."""
        if self._values is None:
            if self._rows is not None:
                self._values = _values_of_rows(self._rows, self.FIELDS)
            else:
                self._values = self._values_of(self._blocks)
        return self._values

    def blocks(self) -> tuple[Any, ...]:
        """The packed blocks; ValueError if a value does not fit them."""
        if self._blocks is None:
            self._blocks = self._blocks_of(self.values())
        return self._blocks

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        if self._values is not None:
            return len(self._values[0])
        return self._blocks[0].shape[1]

    @staticmethod
    def _values_of(blocks: tuple[Any, ...]) -> list[list[Any]]:
        raise NotImplementedError

    @staticmethod
    def _blocks_of(values: list[list[Any]]) -> tuple[Any, ...]:
        raise NotImplementedError


class JobColumns(_Columns):
    """A result's jobs as columns.

    The blocks are ``(ints, floats, nulls, name_lengths, names)``:
    ``ints`` is a (3, n) ``<i8`` array of job_id, num_maps and
    num_reduces; ``floats`` a (5, n) ``<f8`` array of submit_time and
    the four optional times (start_time, map_stage_end, completion_time,
    deadline), 0.0 where a time is None; ``nulls`` a (4, n) bool array,
    True where each optional time is None; ``name_lengths`` a (n,)
    ``<u4`` array of each job name's length in code points; ``names``
    the names joined into one string.  The list of names is split out of
    that string only when the values are built.
    """

    __slots__ = ()

    _ROW = JobResult
    FIELDS = tuple(f.name for f in fields(JobResult))

    @classmethod
    def from_jobs(cls, jobs: Sequence[Job]) -> "JobColumns":
        """The columns of engine jobs (anything with JobResult's fields
        as attributes), without building a JobResult."""
        return cls(values=_values_of_rows(jobs, cls.FIELDS))

    @staticmethod
    def _values_of(blocks: tuple[Any, ...]) -> list[list[Any]]:
        ints, floats, nulls, name_lengths, names = blocks
        times = floats.astype(object)
        times[1:][nulls] = None
        submit, start, map_end, completion, deadline = times.tolist()
        job_id, num_maps, num_reduces = ints.tolist()
        return [
            job_id, _split_names(name_lengths, names), submit, start, map_end, completion,
            deadline, num_maps, num_reduces,
        ]

    @staticmethod
    def _blocks_of(values: list[list[Any]]) -> tuple[Any, ...]:
        job_id, names, submit, *optional, num_maps, num_reduces = values
        try:
            ints = np.array([job_id, num_maps, num_reduces], dtype="<i8")
            joined = "".join(names)
            name_lengths = np.fromiter(map(len, names), dtype="<u4", count=len(names))
        except (OverflowError, TypeError) as exc:
            raise ValueError(f"jobs do not fit the packed layout: {exc!r}") from None
        nulls = np.array([[t is None for t in col] for col in optional], dtype=bool)
        floats = np.array([submit, *optional], dtype="<f8")
        floats[1:][nulls] = 0.0
        return ints, floats, nulls, name_lengths, joined

    def durations(self) -> np.ndarray:
        """T_J = completion - submission of each completed job, in job
        order: the values of :meth:`SimulationResult.durations`."""
        _, floats, nulls, *_ = self.blocks()
        done = ~nulls[2]
        return floats[3][done] - floats[0][done]

    def deadline_utility(self) -> float:
        """The sum of every job's
        :meth:`JobResult.relative_deadline_exceeded`, in job order, by
        the builtin ``sum``: the same floats added in the same order, so
        bit for bit the value the objects give.  0.0 without late jobs.
        """
        _, floats, nulls, *_ = self.blocks()
        completion, deadline = floats[3], floats[4]
        # With deadline > 0, completion - deadline > 0 exactly when
        # completion > deadline: a difference of two unequal doubles is
        # never rounded to zero, and NaN fails both tests.
        late = (completion > deadline) & (deadline > 0) & ~(nulls[2] | nulls[3])
        if not late.any():
            return 0.0
        excess = np.zeros(len(completion))
        with np.errstate(over="ignore"):  # a float division overflows to inf
            excess[late] = (completion[late] - deadline[late]) / deadline[late]
        return sum(excess.tolist(), 0.0)


_KIND_CODES = {"map": 0, "reduce": 1}
_KINDS = np.array(["map", "reduce"], dtype=object)


class RecordColumns(_Columns):
    """A result's task records as columns.

    The blocks are ``(ints, floats, flags)``: ``ints`` is a (2, m)
    ``<i8`` array of job_id and index; ``floats`` a (3, m) ``<f8`` array
    of start, end and shuffle_end (0.0 where None); ``flags`` a (4, m)
    ``u1`` array of kind (0 map, 1 reduce), shuffle_end is None,
    first_wave and killed.
    """

    __slots__ = ()

    _ROW = TaskRecord
    FIELDS = tuple(f.name for f in fields(TaskRecord))

    @staticmethod
    def _values_of(blocks: tuple[Any, ...]) -> list[list[Any]]:
        ints, floats, flags = blocks
        bools = flags.view(bool)
        times = floats.astype(object)
        times[2][bools[1]] = None
        start, end, shuffle_end = times.tolist()
        job_id, index = ints.tolist()
        return [
            _KINDS[flags[0]].tolist(), job_id, index, start, end, shuffle_end,
            bools[2].tolist(), bools[3].tolist(),
        ]

    @staticmethod
    def _blocks_of(values: list[list[Any]]) -> tuple[Any, ...]:
        kinds, job_id, index, start, end, shuffle_end, first_wave, killed = values
        try:
            codes = [_KIND_CODES[kind] for kind in kinds]
            ints = np.array([job_id, index], dtype="<i8")
        except (KeyError, OverflowError, TypeError) as exc:
            raise ValueError(f"task records do not fit the packed layout: {exc!r}") from None
        flags = np.array(
            [codes, [t is None for t in shuffle_end], first_wave, killed], dtype=np.uint8
        )
        floats = np.array([start, end, shuffle_end], dtype="<f8")
        floats[2][flags[1].view(bool)] = 0.0
        return ints, floats, flags


class SimulationResult:
    """Full output of one simulator run.

    ``jobs`` and ``task_records`` may be given as lists of
    :class:`JobResult` / :class:`~repro.core.job.TaskRecord` or as
    :class:`JobColumns` / :class:`RecordColumns`; either way the result
    keeps them as :attr:`job_columns` and :attr:`record_columns`, and
    :attr:`jobs` / :attr:`task_records` build the objects on first
    access.  Equality compares every field, jobs and records included,
    whatever form each side holds.
    """

    __slots__ = (
        "scheduler_name",
        "job_columns",
        "record_columns",
        "makespan",
        "events_processed",
        "wall_clock_seconds",
        "event_digest",
        "engine_path",
        "_by_id",
    )

    def __init__(
        self,
        scheduler_name: str,
        jobs: list[JobResult] | JobColumns,
        task_records: list[TaskRecord] | RecordColumns,
        makespan: float,
        events_processed: int,
        wall_clock_seconds: float,
        event_digest: Optional[str] = None,
        engine_path: Optional[str] = None,
    ) -> None:
        self.scheduler_name = scheduler_name
        self.job_columns = jobs if isinstance(jobs, JobColumns) else JobColumns(rows=jobs)
        self.record_columns = (
            task_records
            if isinstance(task_records, RecordColumns)
            else RecordColumns(rows=task_records)
        )
        self.makespan = makespan
        self.events_processed = events_processed
        self.wall_clock_seconds = wall_clock_seconds
        #: BLAKE2b fingerprint of the popped event stream (hex), set only by
        #: the sweep executor (:func:`repro.parallel.executor._execute`),
        #: which installs a ``DigestRecorder``; a run through ``simulate``
        #: or an engine leaves it ``None`` whatever observer it carried (read
        #: that observer's ``hexdigest()`` instead).  Two runs
        #: with equal digests scheduled the same tasks at the same times in
        #: the same order — the determinism contract's equality, and how the
        #: parallel sweep cache proves a restored result faithful.
        self.event_digest = event_digest
        #: Which engine produced the run: ``"kernel"``
        #: (:class:`~repro.core.kernel.ColumnarEngine`, either mode) or
        #: ``"object"`` (:class:`~repro.core.engine.SimulatorEngine`).
        #: ``None`` on results from before this field existed.
        self.engine_path = engine_path
        self._by_id: Optional[dict[int, JobResult]] = None

    @property
    def jobs(self) -> list[JobResult]:
        """Per-job results, in run order (built on first access)."""
        return self.job_columns.rows()

    @property
    def task_records(self) -> list[TaskRecord]:
        """Task records, in the engine's append order (built on first access)."""
        return self.record_columns.rows()

    def _fields(self) -> tuple:
        return (
            self.scheduler_name,
            self.jobs,
            self.task_records,
            self.makespan,
            self.events_processed,
            self.wall_clock_seconds,
            self.event_digest,
            self.engine_path,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        names = ("scheduler_name", "jobs", "task_records", "makespan", "events_processed",
                 "wall_clock_seconds", "event_digest", "engine_path")
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, self._fields()))
        return f"SimulationResult({body})"

    def job(self, job_id: int) -> JobResult:
        """Result of the job with the given id."""
        if self._by_id is None:
            self._by_id = {j.job_id: j for j in self.jobs}
        return self._by_id[job_id]

    def completion_times(self) -> dict[int, float]:
        """Map from job id to absolute completion time (completed jobs)."""
        job_id, _, _, _, _, completion, *_ = self.job_columns.values()
        return {i: c for i, c in zip(job_id, completion) if c is not None}

    def durations(self) -> dict[int, float]:
        """Map from job id to T_J = completion - submission."""
        job_id, _, submit, _, _, completion, *_ = self.job_columns.values()
        return {i: c - s for i, s, c in zip(job_id, submit, completion) if c is not None}

    def relative_deadline_exceeded(self) -> float:
        """The paper's utility metric: sum over late jobs of (T-D)/D.

        Lower is better; the scheduler minimizing it "is a better candidate
        for a deadline-based scheduler" (Section V-A).
        """
        return self.job_columns.deadline_utility()

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
        return len(self.job_columns)

    def __iter__(self) -> Iterator[JobResult]:
        return iter(self.jobs)
