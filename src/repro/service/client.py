"""Thin stdlib client for the simulation service.

``urllib``-only, so importing it costs nothing the repo does not
already have.  The client's job is fidelity, not convenience magic: it
sends the exact :func:`~repro.service.protocol.request_document` the
server validates, and hands back the run's ``event_digest`` alongside
the rebuilt :class:`~repro.core.results.SimulationResult` so the caller
can assert the service result is byte-identical to a local replay —
the service's core promise.

An inline trace crosses the wire once per server: :meth:`ServiceClient.replay`
first names the trace by its content digest, and sends it inline only
when the server answers that it does not hold it (404 naming the
digest).

Backpressure is first-class: a 503 raises :class:`ServiceRejected`
carrying the server's ``Retry-After``; pass ``max_retries`` to have
:meth:`ServiceClient.replay` honour it with bounded retries instead.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..core.cluster import ClusterConfig
from ..core.job import TraceJob
from ..core.results import SimulationResult
from ..core.results_io import result_from_dict
from ..parallel.executor import SchedulerSpec
from ..sanitize.digest import trace_digest
from .protocol import request_document

__all__ = ["ServiceClient", "ServiceError", "ServiceRejected", "ServiceReply"]


class ServiceError(Exception):
    """Any non-2xx answer from the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceRejected(ServiceError):
    """503 — the bounded queue is full; wait ``retry_after`` seconds."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(503, message)
        self.retry_after = retry_after


@dataclass(frozen=True)
class ServiceReply:
    """One accepted replay: the result plus its service provenance."""

    result: SimulationResult
    #: True when the service answered from its result cache.
    cached: bool
    #: BLAKE2b event-stream digest — compare with a local replay's.
    event_digest: Optional[str]
    #: Content address of the run on the server (None when uncached).
    key: Optional[str]
    request_id: str
    #: Seconds the job spent queued on the server.
    queue_seconds: float
    #: Server-side wall-clock total for the request.
    server_seconds: float


class ServiceClient:
    """Talks to one ``simmr serve`` instance.

    ``sleep`` is injectable (tests); it is only used between 503
    retries, never on the success path.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 300.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._sleep = sleep

    # -- transport ---------------------------------------------------------

    def _request(
        self, path: str, body: Optional[dict[str, Any]] = None
    ) -> tuple[int, dict[str, str], bytes]:
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            data=json.dumps(body).encode() if body is not None else None,
            headers={"Content-Type": "application/json"} if body is not None else {},
            method="POST" if body is not None else "GET",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.status, dict(response.headers), response.read()
        except urllib.error.HTTPError as err:
            return err.code, dict(err.headers or {}), err.read()

    @staticmethod
    def _error_message(payload: bytes) -> str:
        try:
            return json.loads(payload)["error"]
        except (ValueError, KeyError, TypeError):
            return payload.decode(errors="replace") or "<empty error body>"

    # -- API ---------------------------------------------------------------

    def replay(
        self,
        trace: Optional[Sequence[TraceJob]] = None,
        *,
        trace_path: Optional[str] = None,
        scheduler: "str | SchedulerSpec" = "fifo",
        cluster: Optional[ClusterConfig] = None,
        slowstart: float = 0.05,
        preemption: bool = False,
        timeout: Optional[float] = None,
        max_retries: int = 0,
    ) -> ServiceReply:
        """Submit one replay; block until its result (or an error) arrives.

        An inline ``trace`` is first sent as its ``trace_digest`` alone;
        only when the server answers 404 naming that digest is the
        trace sent inline, once.  ``max_retries`` bounds how many 503
        rejections each send absorbs by sleeping the server's
        ``Retry-After`` and resubmitting; the default 0 surfaces
        backpressure to the caller as :class:`ServiceRejected`.
        """
        fields: dict[str, Any] = dict(
            scheduler=scheduler,
            cluster=cluster,
            slowstart=slowstart,
            preemption=preemption,
            timeout=timeout,
        )
        if trace is None:
            doc = request_document(trace_path=trace_path, **fields)
            status, payload = self._send(doc, max_retries)
        else:
            digest = trace_digest(trace)
            doc = request_document(trace_digest=digest, trace_path=trace_path, **fields)
            status, payload = self._send(doc, max_retries)
            if status == 404 and self._unknown_digest(payload) == digest:
                doc = request_document(trace=trace, **fields)
                status, payload = self._send(doc, max_retries)
        if status != 200:
            raise ServiceError(status, self._error_message(payload))
        reply = json.loads(payload)
        seconds = reply.get("seconds", {})
        return ServiceReply(
            result=result_from_dict(reply["result"]),
            cached=bool(reply["cached"]),
            event_digest=reply.get("event_digest"),
            key=reply.get("key"),
            request_id=reply.get("request_id", ""),
            queue_seconds=float(seconds.get("queue", 0.0)),
            server_seconds=float(seconds.get("total", 0.0)),
        )

    def _send(self, doc: dict[str, Any], max_retries: int) -> tuple[int, bytes]:
        """POST ``doc`` to /simulate, absorbing up to ``max_retries`` 503s."""
        attempts = max(0, max_retries) + 1
        for attempt in range(attempts):
            status, headers, payload = self._request("/simulate", doc)
            if status != 503:
                return status, payload
            retry_after = float(headers.get("Retry-After", 1) or 1)
            if attempt + 1 == attempts:
                raise ServiceRejected(self._error_message(payload), retry_after)
            self._sleep(retry_after)
        raise AssertionError("unreachable")  # pragma: no cover

    @staticmethod
    def _unknown_digest(payload: bytes) -> Optional[str]:
        """The ``trace_digest`` a 404 body names, if it names one."""
        try:
            digest = json.loads(payload).get("trace_digest")
        except (ValueError, AttributeError):
            return None
        return digest if isinstance(digest, str) else None

    def metrics(self) -> str:
        """The raw ``/metrics`` page (Prometheus text format)."""
        status, _, payload = self._request("/metrics")
        if status != 200:
            raise ServiceError(status, self._error_message(payload))
        return payload.decode()

    def health(self) -> dict[str, Any]:
        status, _, payload = self._request("/healthz")
        if status != 200:
            raise ServiceError(status, self._error_message(payload))
        return json.loads(payload)
