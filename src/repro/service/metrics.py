"""Live service metrics, rendered in Prometheus text format.

Counters, gauges and a bounded latency reservoir for the simulation
service.  Everything is stdlib: a scrape of ``/metrics`` renders the
exposition-format text (``# HELP`` / ``# TYPE`` + samples) directly, so
any Prometheus-compatible collector — or ``curl`` — can watch queue
depth, cache effectiveness and request latency quantiles without the
service growing a dependency.

Latency quantiles are computed over a fixed-size reservoir of the most
recent observations (default 1024): exact enough for p50/p95 dashboards,
O(1) memory however long the service runs.
"""

from __future__ import annotations

import threading
from bisect import insort
from collections import deque
from typing import Optional

__all__ = ["ServiceMetrics", "PROMETHEUS_CONTENT_TYPE"]

#: The exposition-format content type ``/metrics`` responds with.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: ``simmr_requests_total`` statuses, pre-declared so every series shows
#: up (as 0) from the first scrape — absent series confuse rate() queries.
#: ``unknown_trace`` is a ``trace_digest`` the server does not hold (404);
#: the client then sends the trace inline.
REQUEST_STATUSES = (
    "ok", "cached", "rejected", "invalid", "unknown_trace", "timeout", "error",
)


def _quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated quantile of an ascending-sorted sample."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return sorted_values[low] * (1.0 - fraction) + sorted_values[high] * fraction


class ServiceMetrics:
    """Thread-safe counters + latency reservoir for one service process."""

    def __init__(self, *, reservoir_size: int = 1024) -> None:
        self._lock = threading.Lock()
        self._requests: dict[str, int] = {status: 0 for status in REQUEST_STATUSES}
        self._latencies: deque[float] = deque(maxlen=reservoir_size)
        self._latency_count = 0
        self._latency_sum = 0.0

    # -- recording ---------------------------------------------------------

    def count_request(self, status: str) -> None:
        """Count one finished request under a ``REQUEST_STATUSES`` label."""
        with self._lock:
            self._requests[status] = self._requests.get(status, 0) + 1

    def observe_latency(self, seconds: float) -> None:
        """Record one request's wall-clock latency."""
        with self._lock:
            self._latencies.append(seconds)
            self._latency_count += 1
            self._latency_sum += seconds

    # -- reading -----------------------------------------------------------

    def request_count(self, status: Optional[str] = None) -> int:
        with self._lock:
            if status is not None:
                return self._requests.get(status, 0)
            return sum(self._requests.values())

    def latency_quantiles(self, *qs: float) -> list[float]:
        """Quantiles over the recent-latency reservoir."""
        with self._lock:
            ordered: list[float] = []
            for value in self._latencies:
                insort(ordered, value)
        return [_quantile(ordered, q) for q in qs]

    # -- exposition --------------------------------------------------------

    def render(
        self,
        *,
        queue_depth: int = 0,
        in_flight: int = 0,
        workers: int = 0,
        cache_hits: int = 0,
        cache_misses: int = 0,
        trace_cache_hits: int = 0,
        trace_cache_misses: int = 0,
        trace_cache_entries: int = 0,
    ) -> str:
        """The full ``/metrics`` page, Prometheus text format."""
        with self._lock:
            requests = dict(self._requests)
            count = self._latency_count
            total = self._latency_sum
            ordered: list[float] = []
            for value in self._latencies:
                insort(ordered, value)
        p50 = _quantile(ordered, 0.50)
        p95 = _quantile(ordered, 0.95)
        lookups = cache_hits + cache_misses
        hit_rate = cache_hits / lookups if lookups else 0.0

        lines = [
            "# HELP simmr_requests_total Finished simulation requests by outcome.",
            "# TYPE simmr_requests_total counter",
        ]
        for status in sorted(requests):
            lines.append(f'simmr_requests_total{{status="{status}"}} {requests[status]}')
        lines += [
            "# HELP simmr_queue_depth Jobs waiting in the bounded queue.",
            "# TYPE simmr_queue_depth gauge",
            f"simmr_queue_depth {queue_depth}",
            "# HELP simmr_jobs_in_flight Jobs currently executing on a worker.",
            "# TYPE simmr_jobs_in_flight gauge",
            f"simmr_jobs_in_flight {in_flight}",
            "# HELP simmr_workers Size of the persistent worker pool.",
            "# TYPE simmr_workers gauge",
            f"simmr_workers {workers}",
            "# HELP simmr_cache_lookups_total Result-cache lookups by outcome.",
            "# TYPE simmr_cache_lookups_total counter",
            f'simmr_cache_lookups_total{{outcome="hit"}} {cache_hits}',
            f'simmr_cache_lookups_total{{outcome="miss"}} {cache_misses}',
            "# HELP simmr_cache_hit_rate Fraction of cache lookups that hit.",
            "# TYPE simmr_cache_hit_rate gauge",
            f"simmr_cache_hit_rate {hit_rate:.6f}",
            "# HELP simmr_trace_cache_lookups_total Parsed-trace LRU lookups "
            "by outcome (trace_path and trace_digest requests).",
            "# TYPE simmr_trace_cache_lookups_total counter",
            f'simmr_trace_cache_lookups_total{{outcome="hit"}} {trace_cache_hits}',
            f'simmr_trace_cache_lookups_total{{outcome="miss"}} {trace_cache_misses}',
            "# HELP simmr_trace_cache_entries Parsed traces currently held "
            "(by path and by digest).",
            "# TYPE simmr_trace_cache_entries gauge",
            f"simmr_trace_cache_entries {trace_cache_entries}",
            "# HELP simmr_request_latency_seconds Request latency "
            "(recent-sample quantiles).",
            "# TYPE simmr_request_latency_seconds summary",
            f'simmr_request_latency_seconds{{quantile="0.5"}} {p50:.6f}',
            f'simmr_request_latency_seconds{{quantile="0.95"}} {p95:.6f}',
            f"simmr_request_latency_seconds_sum {total:.6f}",
            f"simmr_request_latency_seconds_count {count}",
        ]
        return "\n".join(lines) + "\n"
