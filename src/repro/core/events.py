"""The seven SimMR event types.

The paper (Section III-B) describes the engine as maintaining "a priority
queue Q for seven event types: job arrivals and departures, map and reduce
task arrivals and departures, and an event signaling the completion of the
map stage. Each event is a triplet ``(eventTime, eventType, jobId)``".

This module provides the :class:`EventType` enumeration.  The engines
keep the queue itself as a binary heap of raw ``(time, type, seq,
job_id, task_index)`` tuples, and the popped stream is observed as
``(time, type, job_id, task_index)`` tuples through an event digest
(:class:`~repro.sanitize.digest.DigestRecorder` carrying an
:class:`~repro.sanitize.digest.EventDigest`; ``keep_events=True`` keeps
the tuples).

Determinism matters: two events at the same simulated time must always pop
in the same order regardless of insertion history, otherwise replaying the
same trace twice could yield different schedules.  Ordering is therefore
``(time, type-priority, sequence number)`` where the sequence number is a
monotonically increasing insertion counter.
"""

from __future__ import annotations

from enum import IntEnum

__all__ = ["EventType"]


class EventType(IntEnum):
    """The seven SimMR event types.

    The integer values double as tie-breaking priorities for events that
    fire at the same simulated time.  Departures (task/job completions)
    are processed before arrivals so that slots freed at time *t* are
    visible to allocation decisions made at time *t*; the map-stage
    completion signal fires after map-task departures at the same instant
    (it is *caused* by the last departure) but before any reduce activity,
    so first-wave shuffle durations are rewritten before new reduce
    decisions are taken.
    """

    MAP_TASK_DEPARTURE = 0
    ALL_MAPS_FINISHED = 1
    REDUCE_TASK_DEPARTURE = 2
    JOB_DEPARTURE = 3
    JOB_ARRIVAL = 4
    MAP_TASK_ARRIVAL = 5
    REDUCE_TASK_ARRIVAL = 6
