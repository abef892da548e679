"""Runtime invariant checks for the SimMR simulator engine.

A :class:`Sanitizer` instance hooks the four engine callbacks
(``begin_run`` / ``observe_pop`` / ``observe_handled`` / ``end_run``)
that the heap loop both engines share invokes on a sanitized run.  The
loop hands each hook the state it checks (the job queue, free slots,
jobs and task records), so no check reads engine internals.  Each check
has a stable identifier (catalogued in ``docs/sanitizer.md``) so
violations can be asserted on in tests and grepped in CI logs:

========  =============================================================
``EVT001``  events popped out of ``(time, type, seq)`` order — a handler
            scheduled an event in the simulated past ("time travel").
            One exception: a zero-duration attempt departs at the
            instant it started, so its departure may pop right after
            (and sort before) the arrival that started it
``EVT002``  event with a negative simulated timestamp
``SLT001``  map/reduce slot conservation broken (``free + running !=
            capacity`` or free slots out of ``[0, capacity]``)
``LIF001``  completion counter out of bounds (regressed, exceeded the
            task count, or exceeded the dispatch counter)
``LIF002``  completion counter changed outside the matching departure
            event, or jumped by more than one per event
``LIF003``  illegal job state transition (the only legal path is
            PENDING -> RUNNING -> COMPLETED)
``LIF004``  completion bookkeeping broken (COMPLETED with unfinished
            tasks, missing ``completion_time``, or a completion time
            that later changed)
``LIF005``  dispatch counter regressed without preemption enabled
``OVL001``  reduce-task phase bounds violated: a filler never rewritten,
            ``start <= shuffle_end <= end`` broken, a first-wave shuffle
            finishing before the map stage, or a first-wave reduce
            starting after it
``OVL002``  recorded task duration disagrees with the trace profile
``FIN001``  slots not fully returned at end of run
========  =============================================================

With ``fail_fast=True`` (the default — what ``SIMMR_SANITIZE=1`` gives
you) the first violation raises :class:`SimsanViolation` at the exact
event that broke the invariant, so the failure is attributable.  With
``fail_fast=False`` violations accumulate on :attr:`Sanitizer.violations`
for inspection — the mode :func:`repro.sanitize.digest.dual_run` and
``simmr check`` use.

The sanitizer reads engine state; it never mutates it, so a sanitized
run's schedule is byte-identical to an unsanitized one (the divergence
digest relies on this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from ..core.job import Job, JobState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.engine import _EngineBase
    from ..core.job import TaskRecord, TraceJob
    from .digest import EventDigest

__all__ = ["Violation", "SimsanViolation", "Sanitizer"]

# Tolerance for floating-point phase arithmetic (durations are sums of
# float64 trace values; exact equality would be too strict only when a
# shuffle model recomputes durations).
_EPS = 1e-9

# Event-type ints, mirrored from the engine's hot-loop constants.
_MAP_DEP = 0
_RED_DEP = 2
_MAP_ARR = 5
_RED_ARR = 6
#: Arrival type -> the departure type of the attempt it starts.
_DEPARTURE_OF = {_MAP_ARR: _MAP_DEP, _RED_ARR: _RED_DEP}

_LEGAL_TRANSITIONS = {
    JobState.PENDING: (JobState.PENDING, JobState.RUNNING),
    JobState.RUNNING: (JobState.RUNNING, JobState.COMPLETED),
    JobState.COMPLETED: (JobState.COMPLETED,),
}


@dataclass(frozen=True, slots=True)
class Violation:
    """One detected invariant violation.

    ``event_index`` is the 1-based position in the popped event stream
    (0 for violations found at ``end_run``); ``time`` is the simulated
    time of that event.
    """

    check_id: str
    message: str
    time: float
    event_index: int

    def __str__(self) -> str:
        return (
            f"{self.check_id} at t={self.time:g} "
            f"(event #{self.event_index}): {self.message}"
        )


class SimsanViolation(RuntimeError):
    """Raised by a ``fail_fast`` sanitizer at the first violation."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(str(violation))
        self.violation = violation


class Sanitizer:
    """Event-granular invariant checker attached to a simulator engine.

    One sanitizer serves one engine; ``begin_run`` resets all per-run
    state (including collected violations), so re-running the engine
    re-checks from scratch.  Attach an :class:`~repro.sanitize.digest.
    EventDigest` via ``digest`` to additionally fingerprint the event
    stream for replay-divergence comparison.
    """

    __slots__ = (
        "fail_fast",
        "digest",
        "violations",
        "_cluster",
        "_preempt",
        "_modelled",
        "_last_key",
        "_started",
        "_events",
        "_now",
        "_snaps",
    )

    def __init__(
        self,
        *,
        fail_fast: bool = True,
        digest: "EventDigest | None" = None,
    ) -> None:
        self.fail_fast = fail_fast
        self.digest = digest
        self.violations: list[Violation] = []
        self._cluster = None
        self._preempt = False
        self._modelled = False
        self._last_key: Optional[tuple[float, int, int]] = None
        # (departure type, job, task) of the attempt the last pop started.
        self._started: Optional[tuple[Optional[int], int, int]] = None
        self._events = 0
        self._now = 0.0
        # job_id -> (state, maps_dispatched, maps_completed,
        #            reduces_dispatched, reduces_completed, completion_time)
        self._snaps: dict[int, tuple] = {}

    # ------------------------------------------------------------------ #
    # engine callbacks
    # ------------------------------------------------------------------ #

    def begin_run(self, engine: "_EngineBase", trace: Sequence["TraceJob"]) -> None:
        """Reset per-run state; called by the engine before the first pop."""
        self.violations = []
        self._cluster = engine.cluster
        self._preempt = engine.preemption
        self._modelled = engine.shuffle_model is not None
        self._last_key = None
        self._started = None
        self._events = 0
        self._now = 0.0
        self._snaps = {}
        if self.digest is not None:
            self.digest.reset()

    def observe_pop(
        self, now: float, etype: int, seq: int, job_id: int, task_index: int
    ) -> None:
        """Check heap-pop order; called for every event, before handling."""
        self._events += 1
        self._now = now
        if now < 0.0:
            self._violate("EVT002", f"event has negative simulated time {now!r}")
        key = (now, etype, seq)
        last = self._last_key
        if (
            last is not None
            and key < last
            # A zero-duration attempt's departure, pushed by the arrival
            # just popped, sorts ahead of it at the same instant (key <
            # last already bounds now from above).
            and not (
                now >= last[0]
                and seq > last[2]
                and self._started == (etype, job_id, task_index)
            )
        ):
            self._violate(
                "EVT001",
                f"event {key} popped after {last}: a handler scheduled an "
                "event in the simulated past",
            )
        self._last_key = key
        self._started = (_DEPARTURE_OF.get(etype), job_id, task_index)
        if self.digest is not None:
            self.digest.update(now, etype, job_id, task_index)

    def observe_handled(
        self,
        job: Job,
        etype: int,
        job_queue: Sequence[Job],
        free_maps: int,
        free_reduces: int,
    ) -> None:
        """Check slot conservation and the handled job's lifecycle.

        Called after each event's handler with the job it handled, the
        jobs submitted and not yet departed, and the free slot counts.
        """
        running_maps = 0
        running_reduces = 0
        for j in job_queue:
            running_maps += j.maps_dispatched - j.maps_completed
            running_reduces += j.reduces_dispatched - j.reduces_completed
        err = self._cluster.slot_accounting_error(
            free_maps, free_reduces, running_maps, running_reduces
        )
        if err is not None:
            self._violate("SLT001", err)
        self._check_lifecycle(job, etype)

    def end_run(
        self,
        jobs: Sequence[Job],
        records: Sequence["TaskRecord"],
        free_maps: int,
        free_reduces: int,
    ) -> None:
        """Whole-run checks once the event heap has drained."""
        cluster = self._cluster
        if free_maps != cluster.map_slots:
            self._violate(
                "FIN001",
                f"run ended with {free_maps}/{cluster.map_slots} "
                "map slots free: a map slot leaked",
                final=True,
            )
        if free_reduces != cluster.reduce_slots:
            self._violate(
                "FIN001",
                f"run ended with {free_reduces}/"
                f"{cluster.reduce_slots} reduce slots free: a reduce slot "
                "leaked",
                final=True,
            )
        for rec in records:
            if rec.killed:
                continue  # preempted attempt: end is the kill time
            job = jobs[rec.job_id]
            where = f"{rec.kind} task {rec.job_id}.{rec.index}"
            if rec.kind == "map":
                expected = job.profile.map_duration(rec.index)
                if not math.isclose(
                    rec.end - rec.start, expected, rel_tol=1e-9, abs_tol=_EPS
                ):
                    self._violate(
                        "OVL002",
                        f"{where} ran for {rec.end - rec.start!r}s but the "
                        f"profile says {expected!r}s",
                        final=True,
                    )
                continue
            if not math.isfinite(rec.end) or rec.shuffle_end is None:
                self._violate(
                    "OVL001",
                    f"{where} is still an infinite filler: ALL_MAPS_FINISHED "
                    "never rewrote its duration",
                    final=True,
                )
                continue
            if not (rec.start - _EPS <= rec.shuffle_end <= rec.end + _EPS):
                self._violate(
                    "OVL001",
                    f"{where} phase boundary out of order: start={rec.start!r}, "
                    f"shuffle_end={rec.shuffle_end!r}, end={rec.end!r}",
                    final=True,
                )
            if not self._modelled:
                expected = job.profile.reduce_duration(rec.index)
                if not math.isclose(
                    rec.end - rec.shuffle_end, expected, rel_tol=1e-9, abs_tol=_EPS
                ):
                    self._violate(
                        "OVL002",
                        f"{where} reduce phase ran for "
                        f"{rec.end - rec.shuffle_end!r}s but the profile says "
                        f"{expected!r}s",
                        final=True,
                    )
            mse = job.map_stage_end
            if rec.first_wave and mse is not None:
                if rec.start > mse + _EPS:
                    self._violate(
                        "OVL001",
                        f"{where} is marked first-wave but started at "
                        f"{rec.start!r}, after the map stage ended at {mse!r}",
                        final=True,
                    )
                if rec.shuffle_end < mse - _EPS:
                    self._violate(
                        "OVL001",
                        f"{where} first-wave shuffle finished at "
                        f"{rec.shuffle_end!r}, before the last map at {mse!r} "
                        "— overlapping shuffles cannot finish before the map "
                        "stage (paper Section III-B)",
                        final=True,
                    )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _check_lifecycle(self, job: Job, etype: int) -> None:
        snap = self._snaps.get(job.job_id)
        if snap is None:
            snap = (JobState.PENDING, 0, 0, 0, 0, None)
        prev_state, pmd, pmc, prd, prc, pct = snap
        state = job.state
        md, mc = job.maps_dispatched, job.maps_completed
        rd, rc = job.reduces_dispatched, job.reduces_completed
        ct = job.completion_time
        name = f"job {job.job_id} ({job.name})"

        if state not in _LEGAL_TRANSITIONS[prev_state]:
            self._violate(
                "LIF003",
                f"{name} jumped from {prev_state.value} to {state.value}",
            )
        for kind, completed, prev_completed, dispatched, total, dep in (
            ("map", mc, pmc, md, job.num_maps, _MAP_DEP),
            ("reduce", rc, prc, rd, job.num_reduces, _RED_DEP),
        ):
            if completed < prev_completed:
                self._violate(
                    "LIF001",
                    f"{name} {kind}s_completed regressed "
                    f"{prev_completed} -> {completed}",
                )
            elif completed > total:
                self._violate(
                    "LIF001",
                    f"{name} completed {completed} {kind}s of {total}: a task "
                    "completed twice",
                )
            elif completed > dispatched:
                self._violate(
                    "LIF001",
                    f"{name} completed {completed} {kind}s but only "
                    f"{dispatched} were dispatched",
                )
            delta = completed - prev_completed
            if delta > 1:
                self._violate(
                    "LIF002",
                    f"{name} completed {delta} {kind} tasks in one event",
                )
            elif delta == 1 and etype != dep:
                self._violate(
                    "LIF002",
                    f"{name} {kind}s_completed advanced outside a {kind} "
                    "departure event",
                )
        if not self._preempt and (md < pmd or rd < prd):
            self._violate(
                "LIF005",
                f"{name} dispatch counters regressed (maps {pmd} -> {md}, "
                f"reduces {prd} -> {rd}) with preemption disabled",
            )
        if state is JobState.COMPLETED:
            if not job.is_complete:
                self._violate(
                    "LIF004",
                    f"{name} marked COMPLETED with {mc}/{job.num_maps} maps "
                    f"and {rc}/{job.num_reduces} reduces done",
                )
            if ct is None:
                self._violate(
                    "LIF004", f"{name} is COMPLETED but has no completion_time"
                )
        if pct is not None and ct != pct:
            self._violate(
                "LIF004", f"{name} completion_time changed {pct!r} -> {ct!r}"
            )
        self._snaps[job.job_id] = (state, md, mc, rd, rc, ct)

    def _violate(self, check_id: str, message: str, *, final: bool = False) -> None:
        violation = Violation(
            check_id=check_id,
            message=message,
            time=self._now,
            event_index=0 if final else self._events,
        )
        if self.fail_fast:
            raise SimsanViolation(violation)
        self.violations.append(violation)
