"""The service's job queue: bounded admission, persistent workers, cache front.

The middle layer between the HTTP handlers and the simulation engine.
Three responsibilities, in request order:

1. **Cache front.**  ``submit`` computes the request's content address
   (the same :func:`~repro.parallel.cache.cache_key` the sweep executor
   uses) and serves a stored result immediately — a repeated request
   never touches the queue, let alone the engine.
2. **Bounded admission.**  Misses go into a bounded queue; when it is
   full, ``submit`` raises :class:`QueueFullError` carrying a
   ``retry_after`` estimate instead of blocking, so the server can
   answer 503 + ``Retry-After`` and the caller's thread is never parked
   on a saturated service (backpressure, not buffering).
3. **Persistent workers.**  A fixed pool of worker threads drains the
   queue, each job executing through the same
   :func:`~repro.parallel.executor.simulate_many` machinery as a local
   run — deterministic seeds, BLAKE2b event digests, cache stores — so
   a service result is verifiably byte-identical to a local replay.

Shutdown is a drain: ``close()`` stops admission, lets the workers
finish everything already queued (or cancels the backlog with
``drain=False``), and joins the pool.  Every waiting ticket is always
completed — with an outcome or an error — so no caller deadlocks on a
dying service.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from math import ceil
from typing import Callable, Optional

from ..core.walltime import elapsed_since, perf_seconds
from ..parallel.cache import ResultCache, cache_key
from ..parallel.executor import SimOutcome, _simulate_many
from .protocol import ReplayRequest

__all__ = ["JobManager", "JobTicket", "QueueFullError", "ServiceClosedError"]

ExecuteFn = Callable[[ReplayRequest], SimOutcome]


class QueueFullError(Exception):
    """The bounded queue rejected a job (backpressure, answer 503)."""

    def __init__(self, depth: int, retry_after: float) -> None:
        super().__init__(f"job queue full ({depth} queued); retry in {retry_after:g}s")
        self.depth = depth
        #: Suggested client wait before retrying (the 503 Retry-After).
        self.retry_after = retry_after


class ServiceClosedError(Exception):
    """The manager is shutting down and no longer accepts jobs."""


@dataclass
class JobTicket:
    """One submitted job's completion handle.

    The HTTP handler blocks on :meth:`wait` (with the request's
    timeout); a worker fills in exactly one of ``outcome`` / ``error``
    and sets the event.  Cache-front hits come back already completed.
    """

    request: ReplayRequest
    outcome: Optional[SimOutcome] = None
    error: Optional[BaseException] = None
    #: Seconds the job waited in the queue before a worker picked it up
    #: (0 for cache-front hits).
    queue_seconds: float = 0.0
    _done: threading.Event = field(default_factory=threading.Event, repr=False)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes; False if ``timeout`` elapsed first."""
        return self._done.wait(timeout)

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def _finish(
        self,
        outcome: Optional[SimOutcome] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        self.outcome = outcome
        self.error = error
        self._done.set()


_SENTINEL = object()


class JobManager:
    """Bounded job queue drained by a persistent worker pool.

    ``execute_fn`` is the single seam: it maps a validated request to a
    :class:`SimOutcome` and defaults to the real engine path (a
    one-task :func:`simulate_many` sharing this manager's result
    cache).  Tests inject a blocking stand-in to pin queue-overflow and
    drain behaviour deterministically.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_size: int = 16,
        cache: Optional[ResultCache] = None,
        execute_fn: Optional[ExecuteFn] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        self.workers = workers
        self.queue_size = queue_size
        self.cache = cache
        self._execute: ExecuteFn = execute_fn if execute_fn is not None else self._simulate
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=queue_size)
        self._lock = threading.Lock()
        self._accepting = True
        self._cancelled = False
        self._in_flight = 0
        #: Jobs that ran on a worker (cache-front hits excluded).
        self.executed = 0
        #: Jobs answered straight from the cache front.
        self.front_hits = 0
        # EWMA of recent execution seconds; seeds the Retry-After estimate.
        self._ewma_seconds = 0.5
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"simmr-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- the engine seam ---------------------------------------------------

    def _simulate(self, request: ReplayRequest) -> SimOutcome:
        # The parser already digested the trace: hand that digest over
        # instead of letting the executor digest it a second time.
        [outcome] = _simulate_many(
            {request.digest: request.trace},
            [request.task()],
            workers=0,
            cache=self.cache,
            fresh=False,
            digest=True,
            progress=None,
            trace_digests={request.digest: request.digest},
        )
        return outcome

    # -- submission --------------------------------------------------------

    def request_key(self, request: ReplayRequest) -> str:
        """The content address this request's result is cached under."""
        task = request.task()
        return cache_key(request.digest, request.scheduler.identity(), task.engine_config())

    def submit(self, request: ReplayRequest) -> JobTicket:
        """Admit one job: cache front, then the bounded queue.

        Raises :class:`QueueFullError` when the queue is saturated and
        :class:`ServiceClosedError` after :meth:`close` began.
        """
        with self._lock:
            if not self._accepting:
                raise ServiceClosedError("service is shutting down")
        ticket = JobTicket(request=request)
        if self.cache is not None:
            hit = self.cache.get(self.request_key(request))
            if hit is not None:
                with self._lock:
                    self.front_hits += 1
                ticket._finish(
                    SimOutcome(
                        task=request.task(),
                        result=hit,
                        cached=True,
                        key=self.request_key(request),
                        seed=0,
                    )
                )
                return ticket
        ticket.queue_seconds = perf_seconds()  # re-based when a worker dequeues
        try:
            self._queue.put_nowait(ticket)
        except queue.Full:
            raise QueueFullError(self._queue.qsize(), self.retry_after()) from None
        return ticket

    def retry_after(self) -> float:
        """Seconds a rejected caller should wait before retrying.

        The backlog ahead of a new job, paced at the recent per-job
        execution rate, clamped to [1, 60] so a misestimate never turns
        into a zero-sleep retry storm or an hour-long backoff.
        """
        with self._lock:
            backlog = self._queue.qsize() + self._in_flight
            pace = self._ewma_seconds
        estimate = ceil(backlog * pace / self.workers) if backlog else 1
        return float(min(60, max(1, estimate)))

    # -- introspection -----------------------------------------------------

    @property
    def depth(self) -> int:
        """Jobs waiting in the queue (excludes in-flight)."""
        return self._queue.qsize()

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    # -- the pool ----------------------------------------------------------

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                self._queue.task_done()
                return
            ticket = item  # type: ignore[assignment]
            assert isinstance(ticket, JobTicket)
            ticket.queue_seconds = elapsed_since(ticket.queue_seconds)
            if self._cancelled:
                ticket._finish(error=ServiceClosedError("service shut down before "
                                                        "this job ran"))
                self._queue.task_done()
                continue
            with self._lock:
                self._in_flight += 1
            start = perf_seconds()
            try:
                outcome = self._execute(ticket.request)
            except BaseException as exc:  # noqa: B036 - must complete the ticket
                ticket._finish(error=exc)
            else:
                ticket._finish(outcome=outcome)
            finally:
                seconds = elapsed_since(start)
                with self._lock:
                    self._in_flight -= 1
                    self.executed += 1
                    self._ewma_seconds = 0.7 * self._ewma_seconds + 0.3 * seconds
                self._queue.task_done()

    # -- shutdown ----------------------------------------------------------

    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop admission and wind the pool down.

        ``drain=True`` (the default) finishes every queued job first;
        ``drain=False`` fails queued-but-unstarted jobs with
        :class:`ServiceClosedError` (their tickets still complete, so
        no waiter hangs).  In-flight jobs always run to completion —
        the engine has no preemption point.  Idempotent.
        """
        with self._lock:
            if not self._accepting:
                return
            self._accepting = False
            if not drain:
                self._cancelled = True
        for _ in self._threads:
            self._queue.put(_SENTINEL)
        for thread in self._threads:
            thread.join(timeout)

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
