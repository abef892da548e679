"""The simulation-as-a-service HTTP front end.

A stdlib :class:`~http.server.ThreadingHTTPServer` wrapping the
:class:`~repro.service.jobs.JobManager`: each connection gets a handler
thread that validates the request (:mod:`repro.service.protocol`),
submits it, and blocks on the ticket with the request's timeout — so a
slow simulation never stalls the accept loop, and a saturated queue is
answered immediately with ``503`` + ``Retry-After`` instead of letting
connections pile up.

Endpoints::

    POST /simulate   run (or cache-serve) one replay; JSON in, JSON out
    GET  /metrics    Prometheus text format (repro.service.metrics)
    GET  /healthz    liveness + queue depth

Operational behaviour is part of the contract: every request gets an
``X-Request-Id`` echoed in a structured (JSON-line) log record, and
:func:`install_signal_handlers` arranges SIGTERM/SIGINT to stop the
accept loop, drain the queue, and complete in-flight responses before
the process exits.

The server binds in the constructor, so ``port=0`` (an ephemeral port)
is usable for tests and CI: read the actual port from ``.address``
before starting the loop.
"""

from __future__ import annotations

import json
import logging
import signal
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Optional

from ..core.results_io import result_to_dict
from ..core.walltime import elapsed_since, perf_seconds
from ..parallel.cache import ResultCache, default_cache_path
from .jobs import JobManager, QueueFullError, ServiceClosedError
from .metrics import PROMETHEUS_CONTENT_TYPE, ServiceMetrics
from .protocol import ProtocolError, UnknownTraceError, parse_request
from .tracecache import TraceCache

__all__ = ["ServiceConfig", "SimulationServer", "install_signal_handlers"]

logger = logging.getLogger("simmr.service")

#: Largest accepted request body (a trace inline in JSON); a guard
#: against a single request exhausting server memory.
MAX_BODY_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class ServiceConfig:
    """Everything `simmr serve` can tune."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``server.address``).
    port: int = 8642
    #: Persistent worker threads draining the job queue.
    workers: int = 2
    #: Bounded queue length; beyond it requests get 503 + Retry-After.
    queue_size: int = 16
    #: Result cache: ``True`` = the default cache file, a path = that
    #: file, ``None``/``False`` = no cache (every request simulates).
    cache: "bool | str | Path | None" = True
    #: Directory ``trace_path`` requests resolve under; None disables
    #: by-path traces entirely (inline traces only).
    trace_root: Optional[Path] = None
    #: Server-side cap on one request's wall-clock budget (seconds).
    request_timeout: float = 120.0
    #: Parsed-trace LRU capacity: ``trace_path`` files and inline traces
    #: (by digest) held in memory together; 0 disables the trace cache,
    #: so every ``trace_digest`` reference misses.
    trace_cache_size: int = 8


def _json_bytes(doc: Any) -> bytes:
    return json.dumps(doc).encode()


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    service: "SimulationServer"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: _ServiceHTTPServer  # type: ignore[assignment]

    # -- plumbing ----------------------------------------------------------

    @property
    def service(self) -> "SimulationServer":
        return self.server.service

    def log_message(self, format: str, *args: Any) -> None:
        # Raw socket-level lines go to debug; the service emits its own
        # structured per-request records instead.
        logger.debug("%s %s", self.address_string(), format % args)

    def _respond(
        self,
        status: int,
        body: bytes,
        *,
        content_type: str = "application/json",
        headers: Optional[dict[str, str]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _respond_json(
        self,
        status: int,
        doc: Any,
        *,
        request_id: Optional[str] = None,
        headers: Optional[dict[str, str]] = None,
    ) -> None:
        headers = dict(headers or {})
        if request_id is not None:
            headers["X-Request-Id"] = request_id
        self._respond(status, _json_bytes(doc), headers=headers)

    # -- GET: metrics / health --------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path == "/metrics":
            self._respond(
                200,
                self.service.render_metrics().encode(),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
        elif self.path == "/healthz":
            manager = self.service.manager
            self._respond_json(
                200,
                {
                    "status": "ok",
                    "queue_depth": manager.depth,
                    "in_flight": manager.in_flight,
                },
            )
        else:
            self._respond_json(404, {"error": f"no such endpoint: {self.path}"})

    # -- POST: simulate ----------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path != "/simulate":
            self._respond_json(404, {"error": f"no such endpoint: {self.path}"})
            return
        service = self.service
        request_id = service.next_request_id()
        start = perf_seconds()
        status, http_status, doc, headers = self._handle_simulate(
            service, request_id, start
        )
        # Account *before* responding: a client that has our reply in
        # hand must see it reflected in an immediate /metrics scrape.
        seconds = elapsed_since(start)
        service.metrics.count_request(status)
        service.metrics.observe_latency(seconds)
        logger.info(
            "%s",
            json.dumps(
                {
                    "request_id": request_id,
                    "method": "POST",
                    "path": self.path,
                    "status": http_status,
                    "outcome": status,
                    "seconds": round(seconds, 6),
                    "queue_depth": service.manager.depth,
                },
                sort_keys=True,
            ),
        )
        try:
            self._respond_json(
                http_status, doc, request_id=request_id, headers=headers
            )
        except BrokenPipeError:
            pass  # client went away mid-response; the work still counted

    def _handle_simulate(
        self, service: "SimulationServer", request_id: str, start: float
    ) -> tuple[str, int, Any, Optional[dict[str, str]]]:
        """Run one /simulate request; returns (outcome, status, doc, headers).

        Pure computation — no bytes hit the socket here, so the caller
        can publish metrics before the client can observe the response.
        """
        try:
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                raise ProtocolError("bad Content-Length header") from None
            if length <= 0:
                raise ProtocolError("request body required")
            if length > MAX_BODY_BYTES:
                raise ProtocolError(
                    f"request body larger than {MAX_BODY_BYTES} bytes", status=413
                )
            try:
                doc = json.loads(self.rfile.read(length))
            except (ValueError, UnicodeDecodeError) as exc:
                raise ProtocolError(f"request body is not valid JSON: {exc}") from None

            request = parse_request(
                doc,
                trace_root=service.config.trace_root,
                trace_cache=service.trace_cache,
            )
            timeout = min(
                request.timeout or service.config.request_timeout,
                service.config.request_timeout,
            )

            try:
                ticket = service.manager.submit(request)
            except QueueFullError as exc:
                return (
                    "rejected",
                    503,
                    {
                        "error": str(exc),
                        "request_id": request_id,
                        "retry_after": exc.retry_after,
                    },
                    {"Retry-After": str(int(exc.retry_after))},
                )
            except ServiceClosedError as exc:
                return (
                    "rejected",
                    503,
                    {"error": str(exc), "request_id": request_id},
                    {"Retry-After": "1"},
                )

            if not ticket.wait(timeout):
                # The job keeps running and will still populate the
                # cache; only this response gives up on it.
                return (
                    "timeout",
                    504,
                    {
                        "error": f"simulation exceeded the {timeout:g}s budget",
                        "request_id": request_id,
                    },
                    None,
                )
            if ticket.error is not None:
                raise ticket.error

            outcome = ticket.outcome
            assert outcome is not None
            return (
                "cached" if outcome.cached else "ok",
                200,
                {
                    "request_id": request_id,
                    "cached": outcome.cached,
                    "key": outcome.key,
                    "event_digest": outcome.result.event_digest,
                    "seconds": {
                        "queue": round(ticket.queue_seconds, 6),
                        "total": round(elapsed_since(start), 6),
                    },
                    "result": result_to_dict(outcome.result),
                },
                None,
            )
        except UnknownTraceError as exc:
            # The client's cue to resend the trace inline.
            return (
                "unknown_trace",
                exc.status,
                {"error": str(exc), "request_id": request_id,
                 "trace_digest": exc.digest},
                None,
            )
        except ProtocolError as exc:
            body: dict[str, Any] = {"error": str(exc), "request_id": request_id}
            if exc.findings:
                # Structured rejection detail for policy submissions:
                # rule id, message and path into the tree — not just
                # the flattened string.
                body["findings"] = list(exc.findings)
            return ("invalid", exc.status, body, None)
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            logger.exception("request %s failed", request_id)
            return (
                "error",
                500,
                {"error": f"internal error: {exc}", "request_id": request_id},
                None,
            )


@dataclass
class SimulationServer:
    """The assembled service: HTTP front end + job manager + metrics.

    Binds its socket on construction; run with :meth:`serve_forever`
    (blocking; the CLI path) or :meth:`start` (background thread; tests
    and embedding).  Always :meth:`shutdown` — or use it as a context
    manager — so the queue drains and an owned cache closes.
    """

    config: ServiceConfig = field(default_factory=ServiceConfig)
    manager: Optional[JobManager] = None

    def __post_init__(self) -> None:
        self.metrics = ServiceMetrics()
        self.trace_cache: Optional[TraceCache] = (
            TraceCache(self.config.trace_cache_size)
            if self.config.trace_cache_size > 0
            else None
        )
        self._own_cache: Optional[ResultCache] = None
        if self.manager is None:
            cache_opt = self.config.cache
            cache: Optional[ResultCache] = None
            if cache_opt is True:
                cache = self._own_cache = ResultCache(default_cache_path())
            elif isinstance(cache_opt, (str, Path)):
                cache = self._own_cache = ResultCache(cache_opt)
            elif isinstance(cache_opt, ResultCache):
                cache = cache_opt
            self.manager = JobManager(
                workers=self.config.workers,
                queue_size=self.config.queue_size,
                cache=cache,
            )
        self._httpd = _ServiceHTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self._httpd.service = self
        self._request_counter = 0
        self._counter_lock = threading.Lock()
        self._shutdown_lock = threading.Lock()
        self._shut_down = False
        self._thread: Optional[threading.Thread] = None

    # -- identity ----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — the real port even with ``port=0``."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def next_request_id(self) -> str:
        with self._counter_lock:
            self._request_counter += 1
            return f"req-{self._request_counter:06d}"

    # -- metrics -----------------------------------------------------------

    def render_metrics(self) -> str:
        assert self.manager is not None
        cache = self.manager.cache
        stats = cache.stats if cache is not None else None
        trace_stats = (
            self.trace_cache.stats() if self.trace_cache is not None else None
        )
        return self.metrics.render(
            queue_depth=self.manager.depth,
            in_flight=self.manager.in_flight,
            workers=self.manager.workers,
            cache_hits=stats.hits if stats else 0,
            cache_misses=stats.misses if stats else 0,
            trace_cache_hits=trace_stats.hits if trace_stats else 0,
            trace_cache_misses=trace_stats.misses if trace_stats else 0,
            trace_cache_entries=trace_stats.entries if trace_stats else 0,
        )

    # -- lifecycle ---------------------------------------------------------

    def serve_forever(self) -> None:
        """Run the accept loop in this thread until :meth:`shutdown`."""
        self._httpd.serve_forever(poll_interval=0.1)

    def start(self) -> "SimulationServer":
        """Run the accept loop in a background thread (tests/embedding)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="simmr-service", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self, *, drain: bool = True) -> None:
        """Stop accepting, drain the queue, finish in-flight responses.

        Safe to call from any thread except the one inside
        :meth:`serve_forever` (signal handlers hop threads via
        :func:`install_signal_handlers`).  Idempotent.
        """
        with self._shutdown_lock:
            if self._shut_down:
                return
            self._shut_down = True
        assert self.manager is not None
        self._httpd.shutdown()  # stop the accept loop
        self.manager.close(drain=drain)
        self._httpd.server_close()  # joins outstanding handler threads
        if self._thread is not None:
            self._thread.join(timeout=10)
        if self._own_cache is not None:
            self._own_cache.close()

    def __enter__(self) -> "SimulationServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


def install_signal_handlers(server: SimulationServer) -> None:
    """Arrange SIGTERM/SIGINT to drain ``server`` gracefully.

    The handler only *starts* the shutdown (on a fresh thread —
    :meth:`SimulationServer.shutdown` must not run on the accept-loop
    thread the signal interrupts); ``serve_forever`` then returns once
    the accept loop stops, and the caller finishes its teardown.
    Main-thread only, like any :func:`signal.signal` call.
    """

    def _on_signal(signum: int, frame: object) -> None:
        logger.info("signal %d: draining", signum)
        threading.Thread(
            target=server.shutdown, name="simmr-drain", daemon=True
        ).start()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
