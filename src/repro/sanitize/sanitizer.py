"""Invariant checks over a finished SimMR run's event stream.

A :class:`Sanitizer` is a :class:`~repro.sanitize.digest.DigestRecorder`
that, after updating the digest, checks the run it observed.  Every
engine path — the object engine, kernel replay mode and kernel pass
mode — hands it the same inputs once per run, after the last event: the
four emitted event columns ``(time, type, job_id, task_index)`` in pop
order, the jobs (trace, per-job completion times), the task records and
the engine's cluster, preemption and shuffle-model settings.  No check
reads engine internals.  The checks are column passes over the stream;
each has a stable identifier, catalogued with its exact meaning in
``docs/sanitizer.md``:

* ``EVT001``/``EVT002`` — ``(time, type)`` order, with one waiver (a
  zero-duration departure right after the arrival of its ``(job,
  task)``), and no negative time;
* ``SLT001``/``FIN001`` — per kind, arrivals minus departures and kills,
  cumulated over the stream, stay in ``[0, capacity]`` and end at 0;
* ``LIF001``-``LIF005`` — per-task and per-job counts and places: a
  departure needs a running attempt, ``ALL_MAPS_FINISHED`` comes at the
  final map departure, a job's events lie between its arrival and its
  departure, the departure comes with every task done at the job's
  ``completion_time``, and a task restarts only after a kill;
* ``OVL001``/``OVL002`` — the task records against the paper's shuffle
  overlap bounds and the profile durations.

**Preemption.**  A kill is not an event, and a killed attempt's
departure still pops (the engine skips it as stale).  The checker reads
both from the task records: a killed record's ``end`` is the kill
instant, placed right after the first ``JOB_ARRIVAL`` at that instant
following the attempt's arrival, and the matching stale departure is
skipped.  A preemptive run under a sanitizer keeps its task records
(:attr:`~repro.sanitize.digest.DigestRecorder.needs_records`).

**Stalls.**  A stalled run is observed before it fails: the stream
checks run over the popped prefix; ``FIN001``, the ``OVL`` checks and
"every job arrived and departed" are skipped.

With ``fail_fast=True`` (the default — what ``SIMMR_SANITIZE=1`` gives
you) the earliest violation raises :class:`SimsanViolation`, naming the
1-based index of the offending event.  With ``fail_fast=False``
violations accumulate on :attr:`Sanitizer.violations` — the mode
:func:`repro.sanitize.digest.dual_run` and ``simmr check`` use.  The
sanitizer never mutates engine state, so a sanitized run's schedule is
byte-identical to an unsanitized one.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Sequence

import numpy as np

from .digest import DigestRecorder, EventDigest, _describe_event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.job import Job, TaskRecord

__all__ = ["Violation", "SimsanViolation", "Sanitizer"]

# Tolerance for floating-point phase arithmetic (durations are sums of
# float64 trace values; exact equality would be too strict only when a
# shuffle model recomputes durations).
_EPS = 1e-9

# Event-type ints, mirrored from the engine's hot-loop constants.
_MAP_DEP, _ALL_MAPS, _RED_DEP, _JOB_DEP, _JOB_ARR, _MAP_ARR, _RED_ARR = range(7)


@dataclass(frozen=True, slots=True)
class Violation:
    """One detected invariant violation.

    ``event_index`` is the 1-based position in the emitted event stream
    (0 for whole-run findings); ``time`` is the simulated time of that
    event (of the last event for whole-run findings).
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


class Sanitizer(DigestRecorder):
    """Invariant checker over one run's emitted event stream.

    :meth:`observe` resets the digest and the collected violations, so
    re-running the engine re-checks from scratch.  Pass an
    :class:`~repro.sanitize.digest.EventDigest` via ``digest`` (e.g. one
    keeping events) to compare runs for replay divergence.
    """

    __slots__ = ("fail_fast",)

    needs_records = True

    def __init__(self, *, fail_fast: bool = True, digest: Optional[EventDigest] = None) -> None:
        super().__init__(digest)
        self.fail_fast = fail_fast

    def observe(self, engine: Any, jobs: Sequence["Job"],
                records: Optional[Sequence["TaskRecord"]], *columns: Any) -> None:
        """Digest the stream, then check it; raise on a violation if
        ``fail_fast``."""
        times, etypes, job_ids, task_indices = columns
        columns = (
            np.asarray(times, dtype=np.float64), np.asarray(etypes, dtype=np.int64),
            np.asarray(job_ids, dtype=np.int64), np.asarray(task_indices, dtype=np.int64),
        )
        super().observe(engine, jobs, records, *columns)
        found = _RunCheck(engine, jobs, records, *columns).run()
        self.violations = found
        if found and self.fail_fast:
            raise SimsanViolation(found[0])


def _lasted(start: float, end: float, expected: float) -> bool:
    """Whether ``start -> end`` took the ``expected`` duration.

    A sum that overflowed to infinity is checked by redoing the sum:
    ``inf - start`` says nothing about the duration.
    """
    if math.isfinite(end):
        return math.isclose(end - start, expected, rel_tol=1e-9, abs_tol=_EPS)
    return start + expected == end


class _RunCheck:
    """The checks of one observed run."""

    def __init__(
        self,
        engine: Any,
        jobs: Sequence["Job"],
        records: Optional[Sequence["TaskRecord"]],
        *columns: np.ndarray,
    ) -> None:
        self.engine, self.jobs, self.records = engine, jobs, records
        self.t, self.e, self.j, self.k = columns
        self.stalled = any(job.completion_time is None for job in jobs)
        self.found: list[Violation] = []

    def violate(self, check_id: str, message: str, at: Optional[int] = None) -> None:
        """Record a violation at stream position ``at`` (0-based; None
        for a whole-run finding)."""
        t = self.t
        if at is None:
            time, index = (float(t[-1]) if len(t) else 0.0), 0
        else:
            time, index = float(t[at]), int(at) + 1
        self.found.append(Violation(check_id, message, time, index))

    def event(self, at: int) -> str:
        return _describe_event(
            (float(self.t[at]), int(self.e[at]), int(self.j[at]), int(self.k[at]))
        )

    def run(self) -> list[Violation]:
        """The violations in stream order, whole-run findings last."""
        self.check_order()
        if self.name_tasks():
            live = self.match_kills()
            self.check_slots(live)
            self.check_lifecycle(live)
        if not self.stalled and self.records is not None:
            self.check_records()
        return sorted(self.found, key=lambda v: (v.event_index == 0, v.event_index))

    def check_order(self) -> None:
        """EVT: times are not negative and never go back."""
        t, e, j, k = self.t, self.e, self.j, self.k
        for at in np.flatnonzero(t < 0.0).tolist():
            self.violate("EVT002", f"event has negative simulated time {t[at]!r}", at)
        same = t[1:] == t[:-1]
        back = (t[1:] < t[:-1]) | (same & (e[1:] < e[:-1]))
        # A zero-duration attempt's departure, pushed by the arrival just
        # popped, sorts ahead of it at the same instant.
        prev = e[:-1]
        departs = np.where(prev == _MAP_ARR, _MAP_DEP, np.where(prev == _RED_ARR, _RED_DEP, -1))
        waived = same & (e[1:] == departs) & (j[1:] == j[:-1]) & (k[1:] == k[:-1])
        for at in (np.flatnonzero(back & ~waived) + 1).tolist():
            self.violate("EVT001", f"{self.event(at)} came after {self.event(at - 1)}: "
                         "a handler scheduled an event in the simulated past", at)

    def name_tasks(self) -> bool:
        """Number every task (maps of job 0, 1, ..., then reduces) into
        :attr:`key`; False, after flagging them, when events name no job
        or task of the trace."""
        e, j, k = self.e, self.j, self.k
        n = len(self.jobs)
        self.M = M = np.asarray([job.num_maps for job in self.jobs], dtype=np.int64)
        self.R = R = np.asarray([job.num_reduces for job in self.jobs], dtype=np.int64)
        is_map = (e == _MAP_ARR) | (e == _MAP_DEP)
        is_red = (e == _RED_ARR) | (e == _RED_DEP)
        valid = (e >= 0) & (e <= 6) & (j >= 0) & (j < n)
        if n:
            size = np.where(is_map, M[np.where(valid, j, 0)], R[np.where(valid, j, 0)])
            valid &= np.where(is_map | is_red, (k >= 0) & (k < size), k == -1)
        bad = np.flatnonzero(~valid).tolist()
        for at in bad:
            self.violate("LIF001", f"event (t={self.t[at]!r}, type {e[at]}, job {j[at]}, "
                         f"task {k[at]}) names no job or task of the trace", at)
        if bad:
            return False
        self.n_keys = int(M.sum() + R.sum())
        moff = np.cumsum(M) - M
        roff = int(M.sum()) + np.cumsum(R) - R
        self.key = np.where(is_map, moff[j] + k, np.where(is_red, roff[j] + k, -1))
        self.arrivals = np.flatnonzero((e == _MAP_ARR) | (e == _RED_ARR))
        return True

    def match_kills(self) -> np.ndarray:
        """The live-event column: False at killed attempts' stale departures.

        Sets :attr:`kills`, ``(position, is_map)`` per kill, and
        :attr:`kills_of`, the kills per task.  The records are one per
        task arrival, in stream order.  Per task with a killed attempt,
        the surviving attempt's departure is the task's last one at its
        record's ``end``; the killed attempts that had a departure
        pending own the others.
        """
        t, e, key, arrivals, records = self.t, self.e, self.key, self.arrivals, self.records
        live = np.ones(len(e), dtype=bool)
        self.kills: list[tuple[int, bool]] = []
        self.kills_of = np.zeros(self.n_keys, dtype=np.int64)
        if records is None or not self.records_match():
            return live
        killed = [i for i, rec in enumerate(records) if rec.killed]
        if killed and not self.engine.preemption:
            self.violate("LIF005", "a task attempt was killed with preemption disabled",
                         int(arrivals[killed[0]]))
        job_arrivals: dict[float, list[int]] = {}
        for at in np.flatnonzero(e == _JOB_ARR).tolist():
            job_arrivals.setdefault(float(t[at]), []).append(at)
        hit = set(key[arrivals[killed]].tolist())
        tries: dict[int, list[int]] = {}
        for i, task in enumerate(key[arrivals].tolist()):
            if task in hit:
                tries.setdefault(task, []).append(i)
        departures: dict[int, list[int]] = {}
        for at in np.flatnonzero(((e == _MAP_DEP) | (e == _RED_DEP))
                                 & np.isin(key, list(hit))).tolist():
            departures.setdefault(int(key[at]), []).append(at)
        for task, attempts in tries.items():
            pending = 0
            for i in attempts:
                rec = records[i]
                if not rec.killed:
                    continue
                self.kills_of[task] += 1
                pending += rec.kind == "map" or rec.shuffle_end is not None
                instants = job_arrivals.get(rec.end, [])
                nxt = bisect_right(instants, int(arrivals[i]))
                if nxt < len(instants):
                    self.kills.append((instants[nxt], rec.kind == "map"))
                else:
                    self.violate("LIF005", f"{self.event(int(arrivals[i]))} started an "
                                 f"attempt killed at t={rec.end!r}, where no job arrives",
                                 int(arrivals[i]))
            last = records[attempts[-1]]
            deps = departures.get(task, [])
            ends = [] if last.killed else [
                d for d in deps if d > arrivals[attempts[-1]] and t[d] == last.end
            ]
            real = ends[-1] if ends else None
            live[[d for d in deps if d != real][:pending]] = False
        return live

    def records_match(self) -> bool:
        """Whether the records are the stream's task arrivals, in order."""
        records, arrivals = self.records, self.arrivals
        got = [(r.kind == "map", r.job_id, r.index, r.start) for r in records]  # type: ignore[union-attr]
        want = list(zip((self.e[arrivals] == _MAP_ARR).tolist(), self.j[arrivals].tolist(),
                        self.k[arrivals].tolist(), self.t[arrivals].tolist()))
        if got == want:
            return True
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
        if i is None:
            self.violate("LIF004", f"{len(got)} task records for {len(want)} task "
                         "arrivals in the stream")
        else:
            self.violate("LIF004", f"task record #{i} {records[i]} disagrees with "  # type: ignore[index]
                         f"{self.event(int(arrivals[i]))}", int(arrivals[i]))
        return False

    def check_slots(self, live: np.ndarray) -> None:
        """SLT/FIN: running tasks per kind stay in ``[0, capacity]`` and
        end at 0."""
        e, cluster = self.e, self.engine.cluster
        for kind, arr, dep, cap in (
            ("map", _MAP_ARR, _MAP_DEP, cluster.map_slots),
            ("reduce", _RED_ARR, _RED_DEP, cluster.reduce_slots),
        ):
            delta = (e == arr).astype(np.int64) - ((e == dep) & live)
            kills = [q for q, is_map in self.kills if is_map is (kind == "map")]
            np.subtract.at(delta, np.asarray(kills, dtype=np.int64), 1)
            running = np.cumsum(delta)
            for at in np.flatnonzero(running > cap)[:1].tolist():
                self.violate("SLT001", f"{running[at]} {kind} tasks running on {cap} "
                             f"{kind} slots", at)
            for at in np.flatnonzero(running < 0)[:1].tolist():
                self.violate("SLT001", f"{-running[at]} more {kind} departures than "
                             f"{kind} arrivals", at)
            if not self.stalled and len(running) and running[-1] != 0:
                self.violate("FIN001", f"run ended with {running[-1]} {kind} task(s) "
                             f"holding a slot: a {kind} slot leaked")

    def check_lifecycle(self, live: np.ndarray) -> None:
        """LIF: per-task and per-job counts and places."""
        t, e, j, key, arrivals = self.t, self.e, self.j, self.key, self.arrivals
        n = len(self.jobs)
        deps = np.flatnonzero(((e == _MAP_DEP) | (e == _RED_DEP)) & live)
        # A departure needs a running attempt: after the task's (last)
        # arrival, and one per task; a task runs again only after a kill.
        last_arrival = np.full(self.n_keys, -1, dtype=np.int64)
        np.maximum.at(last_arrival, key[arrivals], arrivals)
        dk = key[deps]
        for at in deps[(last_arrival[dk] > deps) | (last_arrival[dk] < 0)].tolist():
            self.violate("LIF001", f"{self.event(at)} completed a task that was not "
                         "running", at)
        order = np.argsort(dk, kind="stable")
        for at in deps[order][1:][dk[order][1:] == dk[order][:-1]].tolist():
            self.violate("LIF001", f"{self.event(at)} completed a task a second time", at)
        runs = np.bincount(key[arrivals], minlength=self.n_keys) - self.kills_of
        for at in last_arrival[runs > 1].tolist():
            self.violate("LIF005", f"{self.event(at)} restarted a task that was never "
                         "killed", at)

        # Per job: completions, its first/last live event, its job events.
        is_mdep = e[deps] == _MAP_DEP
        maps_done = np.bincount(j[deps[is_mdep]], minlength=n).tolist()
        reduces_done = np.bincount(j[deps[~is_mdep]], minlength=n).tolist()
        last_map = np.full(n, -1, dtype=np.int64)
        np.maximum.at(last_map, j[deps[is_mdep]], deps[is_mdep])
        last_task = np.full(n, -1, dtype=np.int64)
        np.maximum.at(last_task, j[deps], deps)
        ev = np.flatnonzero(live)
        first = np.full(n, len(e), dtype=np.int64)
        np.minimum.at(first, j[ev], ev)
        last = np.full(n, -1, dtype=np.int64)
        np.maximum.at(last, j[ev], ev)
        marks: dict[int, dict[int, list[int]]] = {_ALL_MAPS: {}, _JOB_ARR: {}, _JOB_DEP: {}}
        for etype, by_job in marks.items():
            for at in np.flatnonzero(e == etype).tolist():
                by_job.setdefault(int(j[at]), []).append(at)

        for jid, job in enumerate(self.jobs):
            name = f"job {jid} ({job.name})"
            m, r, md, rd = int(self.M[jid]), int(self.R[jid]), maps_done[jid], reduces_done[jid]
            all_maps = marks[_ALL_MAPS].get(jid, [])
            lm = int(last_map[jid])
            for at in all_maps[1:]:
                self.violate("LIF002", f"{name} finished its map stage twice", at)
            if all_maps and (md < m or m == 0):
                self.violate("LIF002", f"{name} finished its map stage with {md}/{m} "
                             "maps done", all_maps[0])
            elif all_maps and (all_maps[0] < lm or t[all_maps[0]] != t[lm]):
                self.violate("LIF002", f"{name} finished its map stage at event "
                             f"#{all_maps[0] + 1}, not at its final map departure "
                             f"(event #{lm + 1})", all_maps[0])
            elif not all_maps and m and md == m:
                self.violate("LIF002", f"{name} completed its {m} maps without "
                             "ALL_MAPS_FINISHED", lm)

            arrived = marks[_JOB_ARR].get(jid, [])
            for at in arrived[1:]:
                self.violate("LIF003", f"{name} arrived twice", at)
            if last[jid] >= 0 and (not arrived or first[jid] != arrived[0]):
                self.violate("LIF003", f"{name}: {self.event(int(first[jid]))} precedes "
                             "the job's arrival", int(first[jid]))
            if not arrived and not self.stalled:
                self.violate("LIF003", f"{name} never arrived")

            departed = marks[_JOB_DEP].get(jid, [])
            for at in departed[1:]:
                self.violate("LIF004", f"{name} departed twice", at)
            if not departed:
                if job.completion_time is not None:
                    self.violate("LIF004", f"{name} has completion_time "
                                 f"{job.completion_time!r} but never departed")
                continue
            at, lj, lt = departed[0], int(last[jid]), int(last_task[jid])
            if lj != at:
                self.violate("LIF003", f"{name}: {self.event(lj)} follows the job's "
                             "departure", lj)
            if md != m or rd != r:
                self.violate("LIF004", f"{name} departed with {md}/{m} maps and "
                             f"{rd}/{r} reduces done", at)
            # Exact on purpose: the event carries the float the job stored.
            if t[at] != job.completion_time:  # simlint: disable=SIM001
                self.violate("LIF004", f"{name} departed at t={t[at]!r} but its "
                             f"completion_time is {job.completion_time!r}", at)
            if lt >= 0 and t[at] != t[lt]:
                self.violate("LIF004", f"{name} departed at t={t[at]!r}, not at its "
                             f"last task departure (t={t[lt]!r})", at)

    # ------------------------------------------------------------------ #
    # OVL: task records against the profile
    # ------------------------------------------------------------------ #

    def check_records(self) -> None:
        """OVL: task records against the profile and the overlap bounds."""
        for rec in self.records:  # type: ignore[union-attr]
            if rec.killed:
                continue  # preempted attempt: end is the kill time
            job = self.jobs[rec.job_id]
            where = f"{rec.kind} task {rec.job_id}.{rec.index}"
            if rec.kind == "map":
                expected = job.profile.map_duration(rec.index)
                if not _lasted(rec.start, rec.end, expected):
                    self.violate("OVL002", f"{where} ran for {rec.end - rec.start!r}s "
                                 f"but the profile says {expected!r}s")
                continue
            if rec.shuffle_end is None:
                self.violate("OVL001", f"{where} is still an infinite filler: "
                             "ALL_MAPS_FINISHED never rewrote its duration")
                continue
            if not (rec.start - _EPS <= rec.shuffle_end <= rec.end + _EPS):
                self.violate("OVL001", f"{where} phase boundary out of order: start="
                             f"{rec.start!r}, shuffle_end={rec.shuffle_end!r}, "
                             f"end={rec.end!r}")
            if self.engine.shuffle_model is None:
                expected = job.profile.reduce_duration(rec.index)
                if not _lasted(rec.shuffle_end, rec.end, expected):
                    self.violate("OVL002", f"{where} reduce phase ran for "
                                 f"{rec.end - rec.shuffle_end!r}s but the profile "
                                 f"says {expected!r}s")
            mse = job.map_stage_end
            if rec.first_wave and mse is not None:
                if rec.start > mse + _EPS:
                    self.violate("OVL001", f"{where} is marked first-wave but started "
                                 f"at {rec.start!r}, after the map stage ended at {mse!r}")
                if rec.shuffle_end < mse - _EPS:
                    self.violate("OVL001", f"{where} first-wave shuffle finished at "
                                 f"{rec.shuffle_end!r}, before the last map at {mse!r} "
                                 "— overlapping shuffles cannot finish before the map "
                                 "stage (paper Section III-B)")
