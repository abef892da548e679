"""Simulation-as-a-service: SimMR replays behind a long-lived HTTP API.

Every other entry point in this repo pays full process startup per
campaign; this package keeps a simulator resident and shareable.  A
stdlib :class:`ThreadingHTTPServer` front end (:mod:`.server`) validates
requests (:mod:`.protocol`), a bounded job queue with a persistent
worker pool executes them through the same
:func:`~repro.parallel.executor.simulate_many` machinery as local runs
(:mod:`.jobs`), the content-addressed
:class:`~repro.parallel.cache.ResultCache` fronts the queue so repeated
requests never re-simulate, and ``/metrics`` exposes live Prometheus
counters (:mod:`.metrics`).  The thin client (:mod:`.client`) returns
each run's BLAKE2b ``event_digest`` so callers can verify a service
result is byte-identical to a local replay.

CLI: ``simmr serve`` / ``simmr submit``.  Guide: ``docs/service.md``.
"""

from .client import ServiceClient, ServiceError, ServiceRejected, ServiceReply
from .jobs import JobManager, JobTicket, QueueFullError, ServiceClosedError
from .metrics import ServiceMetrics
from .protocol import (
    ProtocolError,
    ReplayRequest,
    UnknownTraceError,
    parse_request,
    request_document,
)
from .server import ServiceConfig, SimulationServer, install_signal_handlers
from .tracecache import TraceCache, TraceCacheStats

__all__ = [
    "JobManager",
    "JobTicket",
    "ProtocolError",
    "QueueFullError",
    "ReplayRequest",
    "ServiceClient",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceError",
    "ServiceMetrics",
    "ServiceRejected",
    "ServiceReply",
    "SimulationServer",
    "TraceCache",
    "TraceCacheStats",
    "UnknownTraceError",
    "install_signal_handlers",
    "parse_request",
    "request_document",
]
