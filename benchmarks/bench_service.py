"""Simulation service: cold vs warm-cache throughput under concurrent clients.

The service's tentpole claims, measured end to end over real HTTP:

* **identity** — every response's ``event_digest`` equals the digest of
  the same (trace, scheduler, config) run through a local
  :func:`simulate_many`;
* **reuse** — replaying the same request mix against a warm cache is
  answered without a single re-simulation (and much faster);
* **the trace crosses the wire once** — each phase records the request
  body bytes its clients sent: a client names the trace by digest and
  sends it inline only when the server does not hold it, so the warm
  phase sends references alone;
* **backpressure is bounded** — the numbers here come from an
  *unsaturated* server; the 503 path is pinned by ``tests/test_service.py``.

Artifacts: prints the throughput table and writes ``BENCH_service.json``
at the repo root for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

from repro.core import ClusterConfig
from repro.core.walltime import elapsed_since, perf_seconds
from repro.parallel import SchedulerSpec, SimTask, simulate_many
from repro.service import (
    ServiceClient,
    ServiceConfig,
    SimulationServer,
    request_document,
)
from repro.trace.arrivals import ExponentialArrivals
from repro.trace.synthetic import SyntheticTraceGen
from repro.workloads.apps import make_app_specs

REPO_ROOT = Path(__file__).resolve().parent.parent

SCHEDULERS = ("fifo", "maxedf", "minedf", "fair")
CLUSTERS = (ClusterConfig(32, 32), ClusterConfig(64, 64))
CLIENT_THREADS = 4
TRACE_JOBS = 30

#: The warm phase must be answered entirely from the cache.
REQUIRED_WARM_HIT_RATE = 1.0


def make_trace():
    gen = SyntheticTraceGen(
        list(make_app_specs().values()), ExponentialArrivals(40.0), seed=11
    )
    return gen.generate(TRACE_JOBS)


class CountingClient(ServiceClient):
    """A client that adds the bytes of each request body it sends to
    ``sent[0]`` (the count re-encodes the body, outside the server)."""

    def __init__(self, url: str, sent: list[int], lock: threading.Lock) -> None:
        super().__init__(url, timeout=300.0)
        self._sent = sent
        self._sent_lock = lock

    def _request(self, path, body=None):
        if body is not None:
            size = len(json.dumps(body).encode())
            with self._sent_lock:
                self._sent[0] += size
        return super()._request(path, body)


def run_phase(url: str, trace, requests) -> tuple[float, list, int]:
    """Fire ``requests`` from CLIENT_THREADS concurrent clients; return
    the seconds, the replies and the request body bytes sent."""
    replies: list = [None] * len(requests)
    errors: list[BaseException] = []
    lock = threading.Lock()
    cursor = [0]
    sent = [0]

    def worker() -> None:
        client = CountingClient(url, sent, lock)
        while True:
            with lock:
                if cursor[0] >= len(requests):
                    return
                index = cursor[0]
                cursor[0] += 1
            name, cluster = requests[index]
            try:
                replies[index] = client.replay(
                    trace, scheduler=name, cluster=cluster, max_retries=10
                )
            except BaseException as exc:  # noqa: BLE001 - reported via assert
                errors.append(exc)
                return

    start = perf_seconds()
    threads = [threading.Thread(target=worker) for _ in range(CLIENT_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    seconds = elapsed_since(start)
    assert not errors, errors
    return seconds, replies, sent[0]


def test_service_throughput(benchmark, once):
    trace = make_trace()
    requests = [(name, cluster) for name in SCHEDULERS for cluster in CLUSTERS]
    local = {
        (name, cluster): outcome.result.event_digest
        for (name, cluster), outcome in zip(
            requests,
            simulate_many(
                {"t": trace},
                [
                    SimTask(
                        trace_id="t",
                        scheduler=SchedulerSpec(kind="registry", name=name),
                        cluster=cluster,
                    )
                    for name, cluster in requests
                ],
                cache=None,
            ),
        )
    }

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        config = ServiceConfig(
            port=0,
            workers=CLIENT_THREADS,
            queue_size=len(requests) * 2,
            cache=Path(tmp) / "bench.sqlite",
        )
        with SimulationServer(config).start() as server:
            # Headline number via the shared harness: the cold phase.
            cold_s, cold, cold_bytes = once(
                benchmark, run_phase, server.url, trace, requests
            )
            warm_s, warm, warm_bytes = run_phase(server.url, trace, requests)
            metrics_page = ServiceClient(server.url).metrics()

    cold_rps = len(requests) / cold_s
    warm_rps = len(requests) / warm_s
    warm_hits = sum(r.cached for r in warm)
    hit_rate = warm_hits / len(warm)

    report = {
        "requests_per_phase": len(requests),
        "trace_jobs": TRACE_JOBS,
        "client_threads": CLIENT_THREADS,
        "server_workers": CLIENT_THREADS,
        "cold_seconds": cold_s,
        "cold_requests_per_second": cold_rps,
        "warm_seconds": warm_s,
        "warm_requests_per_second": warm_rps,
        "warm_speedup": cold_s / warm_s,
        "warm_cache_hit_rate": hit_rate,
        "cold_request_bytes": cold_bytes,
        "warm_request_bytes": warm_bytes,
        "inline_trace_bytes": len(json.dumps(request_document(trace=trace)).encode()),
        "digests_identical_to_local": True,
    }
    (REPO_ROOT / "BENCH_service.json").write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"\n{len(requests)} requests x {CLIENT_THREADS} clients over "
        f"{TRACE_JOBS}-job trace:"
        f"\ncold (simulating) : {cold_s:.2f}s ({cold_rps:.1f} req/s)"
        f"\nwarm (cache)      : {warm_s:.2f}s ({warm_rps:.1f} req/s, "
        f"{hit_rate:.0%} hits, {cold_s / warm_s:.1f}x)"
        f"\nrequest bytes     : cold {cold_bytes}, warm {warm_bytes}"
    )

    # Identity: the service replays exactly what a local run replays.
    for (name, cluster), reply in zip(requests, cold):
        assert reply.event_digest == local[(name, cluster)], (name, cluster)
    for (name, cluster), reply in zip(requests, warm):
        assert reply.event_digest == local[(name, cluster)], (name, cluster)

    # Reuse: a warm request mix never re-simulates and outruns cold.
    assert hit_rate >= REQUIRED_WARM_HIT_RATE
    assert warm_s < cold_s

    # The warm phase names the trace by digest in every request: all of
    # it sends fewer bytes than the trace inline once.
    assert warm_bytes < report["inline_trace_bytes"]
    assert 'simmr_requests_total{status="cached"}' in metrics_page
