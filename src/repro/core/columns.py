"""Columnar task-profile storage: one buffer, many zero-copy views.

A trace is logically a list of :class:`~repro.core.job.TraceJob`, each
carrying four per-phase duration vectors.  Moving that representation
between processes (the parallel executor), off disk (the binary trace
format) or through a service cache as per-job Python objects costs a
full pickle/parse per copy.  :class:`TraceColumns` is the columnar
alternative: all duration vectors of all jobs live back-to-back in a
single contiguous float64 buffer, with small per-job metadata columns
(``array`` module vectors) describing where each phase's span sits.

The crucial property is that the buffer never needs to be owned by this
process: it can be an in-process ``array('d')`` or an ``mmap`` of a
binary trace file — :meth:`TraceColumns.jobs` rebuilds
:class:`~repro.core.job.TraceJob` objects whose
:class:`~repro.core.job.JobProfile` arrays are *views* into that buffer
(``numpy.frombuffer``), so "parsing" a trace the second time is
O(jobs), not O(task durations), and N workers mapping the same file
share one physical copy of the durations in the page cache.

Schedulers, the engine and the results layer are unchanged: a view-built
``TraceJob`` is indistinguishable from a loaded one (same types, same
bit-exact float64 durations, same
:func:`~repro.sanitize.digest.trace_digest`).
"""

from __future__ import annotations

import math
from array import array
from typing import Sequence

import numpy as np

from .job import JobProfile, TraceJob

__all__ = ["TraceColumns", "PHASES"]

#: The four duration phases, in their storage order within each job's
#: span table (and within the binary trace format's job records).
PHASES = ("map", "first_shuffle", "typical_shuffle", "reduce")

#: ``depends_on`` column value meaning "no dependency".
_NO_DEP = -1


def _phase_arrays(profile: JobProfile) -> tuple[np.ndarray, ...]:
    return (
        profile.map_durations,
        profile.first_shuffle_durations,
        profile.typical_shuffle_durations,
        profile.reduce_durations,
    )


class TraceColumns:
    """Array-backed columnar form of a replayable trace.

    Columns (all little arrays, one entry per job):

    * ``names`` — job/application names;
    * ``submit_times`` (``array('d')``), ``deadlines`` (``array('d')``,
      NaN encodes "no deadline"), ``depends_on`` (``array('q')``, -1
      encodes "no dependency");
    * ``num_maps`` / ``num_reduces`` (``array('q')``);
    * ``spans`` (``array('Q')``, 8 entries per job) — ``(offset,
      length)`` pairs into :attr:`data` for each of the four
      :data:`PHASES`, in float64 units.

    ``data`` is any object exposing the buffer protocol over the
    contiguous float64 durations; ``owner`` (optional) is kept alive so
    a backing ``mmap`` cannot be collected while views into it exist.
    Profiles view a read-only buffer (``bytes``, a read-only ``mmap``)
    in place; a writable one is copied per profile, since
    :class:`~repro.core.job.JobProfile` content must not change.

    Identical duration vectors are stored once (content deduplication):
    a trace replaying one recorded profile 500 times carries one copy
    of its arrays, which is also what makes the packed binary form
    compact.
    """

    __slots__ = (
        "names",
        "submit_times",
        "deadlines",
        "depends_on",
        "num_maps",
        "num_reduces",
        "spans",
        "data",
        "owner",
    )

    def __init__(
        self,
        *,
        names: tuple[str, ...],
        submit_times: array,
        deadlines: array,
        depends_on: array,
        num_maps: array,
        num_reduces: array,
        spans: array,
        data: object,
        owner: object = None,
    ) -> None:
        n = len(names)
        if not (
            len(submit_times) == len(deadlines) == len(depends_on)
            == len(num_maps) == len(num_reduces) == n
            and len(spans) == 8 * n
        ):
            raise ValueError("column lengths disagree")
        self.names = names
        self.submit_times = submit_times
        self.deadlines = deadlines
        self.depends_on = depends_on
        self.num_maps = num_maps
        self.num_reduces = num_reduces
        self.spans = spans
        self.data = data
        self.owner = owner

    # -- construction ------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: Sequence[TraceJob]) -> "TraceColumns":
        """Copy a job-object trace into fresh columnar storage."""
        names: list[str] = []
        submit_times = array("d")
        deadlines = array("d")
        depends_on = array("q")
        num_maps = array("q")
        num_reduces = array("q")
        spans = array("Q")
        data = array("d")
        # Content-level dedup of duration vectors: byte-identical spans
        # share one slot in the buffer (deterministic — keyed purely on
        # content, first occurrence wins).
        seen: dict[bytes, int] = {}
        for job in trace:
            profile = job.profile
            names.append(profile.name)
            submit_times.append(job.submit_time)
            deadlines.append(math.nan if job.deadline is None else job.deadline)
            depends_on.append(_NO_DEP if job.depends_on is None else job.depends_on)
            num_maps.append(profile.num_maps)
            num_reduces.append(profile.num_reduces)
            for arr in _phase_arrays(profile):
                payload = arr.tobytes()
                offset = seen.get(payload)
                if offset is None:
                    offset = len(data)
                    seen[payload] = offset
                    data.frombytes(payload)
                spans.append(offset)
                spans.append(arr.size)
        return cls(
            names=tuple(names),
            submit_times=submit_times,
            deadlines=deadlines,
            depends_on=depends_on,
            num_maps=num_maps,
            num_reduces=num_reduces,
            spans=spans,
            # Immutable, so the profiles of jobs() view it uncopied.
            data=data.tobytes(),
        )

    # -- shape -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    @property
    def total_durations(self) -> int:
        """float64 slots in the shared duration buffer."""
        return memoryview(self.data).nbytes // 8

    @property
    def nbytes(self) -> int:
        """Approximate footprint of the columnar storage (bytes)."""
        return (
            memoryview(self.data).nbytes
            + sum(len(n.encode()) for n in self.names)
            + self.submit_times.itemsize * len(self.submit_times)
            + self.deadlines.itemsize * len(self.deadlines)
            + self.depends_on.itemsize * len(self.depends_on)
            + self.num_maps.itemsize * len(self.num_maps)
            + self.num_reduces.itemsize * len(self.num_reduces)
            + self.spans.itemsize * len(self.spans)
        )

    # -- view reconstruction ----------------------------------------------

    def _phase_view(self, raw: memoryview, slot: int) -> np.ndarray:
        offset = self.spans[slot]
        count = self.spans[slot + 1]
        return np.frombuffer(raw, dtype="<f8", count=count, offset=offset * 8)

    def job(self, index: int) -> TraceJob:
        """Job ``index`` as a thin view over the shared buffer."""
        if not 0 <= index < len(self.names):
            raise IndexError(f"job index {index} out of range")
        raw = memoryview(self.data).cast("B")
        return self._job(index, raw)

    def _job(self, index: int, raw: memoryview) -> TraceJob:
        base = 8 * index
        deadline = self.deadlines[index]
        dep = self.depends_on[index]
        profile = JobProfile(
            name=self.names[index],
            num_maps=self.num_maps[index],
            num_reduces=self.num_reduces[index],
            map_durations=self._phase_view(raw, base),
            first_shuffle_durations=self._phase_view(raw, base + 2),
            typical_shuffle_durations=self._phase_view(raw, base + 4),
            reduce_durations=self._phase_view(raw, base + 6),
        )
        return TraceJob(
            profile=profile,
            submit_time=self.submit_times[index],
            deadline=None if math.isnan(deadline) else deadline,
            depends_on=None if dep == _NO_DEP else dep,
        )

    def jobs(self) -> list[TraceJob]:
        """The full trace, every duration array a view into :attr:`data`.

        O(jobs) object construction; no duration of a read-only
        :attr:`data` is copied.  The views keep :attr:`data` (and
        :attr:`owner`) alive, so the backing mmap outlives every
        returned job.
        """
        raw = memoryview(self.data).cast("B")
        return [self._job(i, raw) for i in range(len(self.names))]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceColumns(jobs={len(self)}, durations={self.total_durations}, "
            f"~{self.nbytes} bytes)"
        )


def columns_from_trace(trace: Sequence[TraceJob]) -> TraceColumns:
    """Module-level alias of :meth:`TraceColumns.from_trace`."""
    return TraceColumns.from_trace(trace)


def trace_from_columns(columns: TraceColumns) -> list[TraceJob]:
    """Module-level alias of :meth:`TraceColumns.jobs`."""
    return columns.jobs()


__all__ += ["columns_from_trace", "trace_from_columns"]
