"""Streamed event digests and replay-divergence detection.

The determinism contract (``docs/linting.md``) promises that replaying
one trace twice yields the *identical* event stream.  Static analysis
(DET001/DET002/DET004) proves the absence of known nondeterminism
sources; this module checks the contract *empirically*: each observed
run hands its emitted events ``(time, type, job_id, task_index)`` to a
BLAKE2b digest once it ends, and :func:`dual_run` executes the same trace on
two independently built engines and compares the fingerprints.  When
they disagree the kept event streams are diffed to name the first
diverging event — the point to start debugging from.

The digest deliberately excludes the heap sequence number: two runs
that schedule the same tasks at the same times in the same order are
equivalent even if internal push counters drift (they do not today,
but the contract is about observable behaviour).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

import numpy as np

from ..core.events import EventType
from ..trace.schema import SCHEMA_VERSION

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.engine import _EngineBase
    from ..core.job import Job, TaskRecord, TraceJob
    from ..core.results import SimulationResult
    from .sanitizer import Violation

__all__ = [
    "EventDigest",
    "DigestRecorder",
    "DivergenceReport",
    "DualRunOutcome",
    "compare_digests",
    "dual_run",
    "trace_digest",
]

# One packed record per event: float64 time + three int32 fields.
_PACK = struct.Struct("<dlll").pack

#: The same 20-byte packed layout as ``_PACK``, as a numpy record dtype
#: (field dtypes listed explicitly → packed, no alignment padding), so a
#: whole event stream can be hashed in one buffer update.
_PACK_DTYPE = [
    ("time", "<f8"),
    ("etype", "<i4"),
    ("job_id", "<i4"),
    ("task_index", "<i4"),
]

# Canonical trace layout of :func:`trace_digest`: tag, schema version,
# job count; then per job submit, deadline, deadline-present byte,
# depends_on, num_maps, num_reduces and name length.
_TRACE_HEAD = struct.Struct("<8sIQ")
_JOB_HEAD = struct.Struct("<ddBqqqQ")


def trace_digest(trace: Sequence["TraceJob"]) -> str:
    """Content digest of a replayable trace (the cache-key input).

    BLAKE2b-16 over a canonical little-endian byte layout of the
    trace's logical content (no JSON is built):

    * ``_TRACE_HEAD``: the tag ``SMRTRACE``, the trace
      :data:`~repro.trace.schema.SCHEMA_VERSION` and the job count;
    * per job, one ``_JOB_HEAD`` record: submit time f64, deadline f64
      (0.0 when absent) plus a deadline-present byte, ``depends_on`` i64
      (-1 for none), ``num_maps`` i64, ``num_reduces`` i64 and the
      UTF-8 name length; then the name bytes;
    * then the job profile's 16-byte
      :attr:`~repro.core.job.JobProfile.durations_digest`: BLAKE2b-16
      of its four phase vectors (map, first shuffle, typical shuffle,
      reduce), each as a u64 length followed by its raw ``<f8`` bytes.

    Every variable-length field is length-prefixed, so two traces
    digest equally iff their canonical JSON documents
    (:func:`~repro.trace.schema.trace_to_dict`) are the same text:
    ``-0.0`` and ``0.0`` differ in both.  The digest reads each job's
    own vectors, so it does not depend on how
    :class:`~repro.core.columns.TraceColumns` deduplicates them or
    where their buffer lives (heap or ``mmap``).

    A profile is immutable and computes its durations digest at most
    once, so only the first call on a trace's profiles reads the
    durations; every later call costs O(jobs).
    :mod:`repro.parallel` keys its content-addressed result cache on
    this together with the scheduler and engine configuration, and the
    ``.simmr`` header records it.
    """
    h = blake2b(_TRACE_HEAD.pack(b"SMRTRACE", SCHEMA_VERSION, len(trace)), digest_size=16)
    update = h.update
    for job in trace:
        profile = job.profile
        # surrogatepass keeps the encoding injective for every str, so a
        # name JSON can carry (a lone surrogate) still digests.
        name = profile.name.encode("utf-8", "surrogatepass")
        deadline = job.deadline
        update(
            _JOB_HEAD.pack(
                job.submit_time,
                0.0 if deadline is None else deadline,
                deadline is not None,
                -1 if job.depends_on is None else job.depends_on,
                profile.num_maps,
                profile.num_reduces,
                len(name),
            )
        )
        update(name)
        update(profile.durations_digest)
    return h.hexdigest()


def _describe_event(event: tuple[float, int, int, int]) -> str:
    time, etype, job_id, task_index = event
    try:
        name = EventType(etype).name
    except ValueError:  # pragma: no cover - defensive
        name = f"type{etype}"
    task = "" if task_index < 0 else f", task {task_index}"
    return f"{name}(job {job_id}{task}) at t={time:g}"


class EventDigest:
    """Order-sensitive fingerprint of a simulation's event stream.

    A run's observer (:class:`DigestRecorder`) feeds it the whole stream
    in one :meth:`update_many` call; :meth:`update` hashes one event the
    same way, for streams built by hand.  With ``keep_events=True`` (the default) the raw
    ``(time, type, job_id, task_index)`` tuples are retained so a
    mismatch can be localised to the first diverging event; disable it
    to fingerprint huge traces in O(1) memory.
    """

    __slots__ = ("keep_events", "count", "events", "_hash")

    def __init__(self, *, keep_events: bool = True) -> None:
        self.keep_events = keep_events
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self.events: list[tuple[float, int, int, int]] = []
        self._hash = blake2b(digest_size=16)

    def update(self, time: float, etype: int, job_id: int, task_index: int) -> None:
        """Hash one event, as :meth:`update_many` hashes each of its rows."""
        self._hash.update(_PACK(time, etype, job_id, task_index))
        self.count += 1
        if self.keep_events:
            self.events.append((time, etype, job_id, task_index))

    def update_many(self, times, etypes, job_ids, task_indices) -> None:
        """Bulk :meth:`update`: whole event stream in one hash call.

        Accepts parallel arrays (any numpy-coercible sequences) and
        hashes them through the exact ``_PACK`` byte layout — one packed
        record buffer, one BLAKE2b update — so the digest is
        byte-for-byte what per-event :meth:`update` calls would produce.
        This is what lets the columnar kernel fingerprint a
        400k-event run without paying 400k python-level hash calls.
        """
        rec = np.empty(len(times), dtype=_PACK_DTYPE)
        rec["time"] = times
        rec["etype"] = etypes
        rec["job_id"] = job_ids
        rec["task_index"] = task_indices
        self._hash.update(rec)  # the contiguous record buffer, uncopied
        self.count += len(rec)
        if self.keep_events:
            self.events.extend(
                zip(
                    rec["time"].tolist(),
                    rec["etype"].tolist(),
                    rec["job_id"].tolist(),
                    rec["task_index"].tolist(),
                )
            )

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class DigestRecorder:
    """The run observer that only fingerprints the event stream.

    Both engines call :meth:`observe` once per run, after the last event
    (or, when the run stalls, before it fails), with the emitted stream
    as four flat columns in pop order; the recorder hashes them in one
    packed-buffer update and checks nothing.  This is what the sweep
    layers (:mod:`repro.sweep`, :mod:`repro.parallel`) install to
    fingerprint every run cheaply.
    :class:`~repro.sanitize.sanitizer.Sanitizer` is the subclass that
    also checks the stream.

    It is also the one way to see the event stream: with
    ``DigestRecorder(EventDigest(keep_events=True))`` the recorder's
    ``digest.events`` holds the popped ``(time, type, job_id,
    task_index)`` tuples after a run (or, when the run stalls, the
    prefix popped before it failed).

    A checked and an unchecked run of the same trace hash the same
    stream, so their fingerprints are directly comparable.
    """

    __slots__ = ("digest", "violations")

    #: Whether a preemptive run must keep its task records for this
    #: observer (the checker places kills from them).
    needs_records = False

    def __init__(self, digest: Optional[EventDigest] = None) -> None:
        self.digest = digest if digest is not None else EventDigest(keep_events=False)
        #: Always empty here — kept so callers can treat any installed
        #: observer uniformly (``engine.sanitizer.violations``).
        self.violations: list = []

    def observe(self, engine: Any, jobs: Sequence["Job"],
                records: Optional[Sequence["TaskRecord"]], *columns: Any) -> None:
        """Take one run's emitted stream: reset the digest and hash it.

        ``engine`` is the engine that ran, ``jobs`` its finished (or
        stalled) jobs, ``records`` its task records (None when it kept
        none) and ``columns`` the event ``(times, types, job_ids,
        task_indices)`` in pop order; this class reads only the columns.
        """
        self.digest.reset()
        self.digest.update_many(*columns)

    def hexdigest(self) -> str:
        return self.digest.hexdigest()


@dataclass(frozen=True, slots=True)
class DivergenceReport:
    """Outcome of comparing two runs' event digests (check ``DIV001``)."""

    diverged: bool
    digest_a: str
    digest_b: str
    count_a: int
    count_b: int
    #: Index (0-based) of the first differing event, when both digests
    #: kept their event streams; None for digest-only comparisons.
    first_index: Optional[int] = None
    event_a: Optional[tuple[float, int, int, int]] = None
    event_b: Optional[tuple[float, int, int, int]] = None

    def describe(self) -> str:
        if not self.diverged:
            return f"runs identical: {self.count_a} events, digest {self.digest_a}"
        if self.first_index is None:
            return (
                f"DIV001: runs diverged (digest {self.digest_a} != "
                f"{self.digest_b}, {self.count_a} vs {self.count_b} events)"
            )
        a = _describe_event(self.event_a) if self.event_a else "<stream ended>"
        b = _describe_event(self.event_b) if self.event_b else "<stream ended>"
        return (
            f"DIV001: runs diverged at event #{self.first_index}: "
            f"first run saw {a}, second run saw {b}"
        )

    def to_dict(self) -> dict:
        return {
            "diverged": self.diverged,
            "digest_a": self.digest_a,
            "digest_b": self.digest_b,
            "count_a": self.count_a,
            "count_b": self.count_b,
            "first_index": self.first_index,
            "event_a": list(self.event_a) if self.event_a else None,
            "event_b": list(self.event_b) if self.event_b else None,
        }


def compare_digests(a: EventDigest, b: EventDigest) -> DivergenceReport:
    """Compare two per-run digests, localising the first mismatch."""
    diverged = a.hexdigest() != b.hexdigest() or a.count != b.count
    first_index = None
    event_a = None
    event_b = None
    if diverged and a.keep_events and b.keep_events:
        limit = max(len(a.events), len(b.events))
        for i in range(limit):
            ea = a.events[i] if i < len(a.events) else None
            eb = b.events[i] if i < len(b.events) else None
            if ea != eb:
                first_index, event_a, event_b = i, ea, eb
                break
    return DivergenceReport(
        diverged=diverged,
        digest_a=a.hexdigest(),
        digest_b=b.hexdigest(),
        count_a=a.count,
        count_b=b.count,
        first_index=first_index,
        event_a=event_a,
        event_b=event_b,
    )


@dataclass(frozen=True, slots=True)
class DualRunOutcome:
    """Everything :func:`dual_run` learned from replaying a trace twice."""

    report: DivergenceReport
    results: tuple["SimulationResult", "SimulationResult"]
    violations: tuple[tuple["Violation", ...], tuple["Violation", ...]] = field(
        default=((), ())
    )

    @property
    def ok(self) -> bool:
        return not self.report.diverged and not any(self.violations)


def dual_run(
    engine_factory: Callable[[], "_EngineBase"],
    trace: Sequence["TraceJob"],
    *,
    keep_events: bool = True,
) -> DualRunOutcome:
    """Replay ``trace`` twice on independently built engines and compare.

    ``engine_factory`` must return a *fresh* engine **and** a fresh
    scheduler on every call — reusing a scheduler would let first-run
    state leak into the second run and mask (or fabricate) divergence.
    Each engine gets a fresh collecting sanitizer (``fail_fast=False``)
    carrying an :class:`EventDigest`, replacing any sanitizer the
    factory installed; invariant violations are reported alongside the
    divergence verdict rather than raised.
    """
    from .sanitizer import Sanitizer

    digests: list[EventDigest] = []
    results = []
    violations = []
    for _ in range(2):
        engine = engine_factory()
        digest = EventDigest(keep_events=keep_events)
        engine.sanitizer = Sanitizer(fail_fast=False, digest=digest)
        results.append(engine.run(trace))
        digests.append(digest)
        violations.append(tuple(engine.sanitizer.violations))
    return DualRunOutcome(
        report=compare_digests(digests[0], digests[1]),
        results=(results[0], results[1]),
        violations=(violations[0], violations[1]),
    )
