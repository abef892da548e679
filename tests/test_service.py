"""Tests for the simulation service (repro.service).

Covers the subsystem's contract end to end: protocol validation,
inline traces sent once and named by digest after,
cache-front behaviour, digest identity between service and local
replays under concurrent clients, bounded-queue backpressure (503 +
Retry-After, never a hang), per-request timeouts, metrics exposure,
and graceful drain with jobs still in flight.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path

import pytest

from repro.core import ClusterConfig
from repro.parallel import ResultCache, SchedulerSpec, SimTask, simulate_many
from repro.service import (
    JobManager,
    ProtocolError,
    QueueFullError,
    ServiceClient,
    ServiceClosedError,
    ServiceConfig,
    ServiceError,
    ServiceMetrics,
    ServiceRejected,
    SimulationServer,
    TraceCache,
    UnknownTraceError,
    parse_request,
    request_document,
)
from repro.sanitize.digest import trace_digest
from repro.trace.arrivals import ExponentialArrivals
from repro.trace.schema import save_trace, trace_to_dict
from repro.trace.synthetic import SyntheticTraceGen
from repro.workloads.apps import make_app_specs


def make_trace(jobs: int = 4, seed: int = 3):
    gen = SyntheticTraceGen(
        list(make_app_specs().values()), ExponentialArrivals(50.0), seed=seed
    )
    return gen.generate(jobs)


@pytest.fixture(scope="module")
def trace():
    return make_trace()


def local_digest(trace, scheduler="fifo", cluster=ClusterConfig(64, 64), slowstart=0.05):
    task = SimTask(
        trace_id="t",
        scheduler=SchedulerSpec(kind="registry", name=scheduler),
        cluster=cluster,
        slowstart=slowstart,
    )
    [outcome] = simulate_many({"t": trace}, [task], cache=None)
    return outcome.result.event_digest


@pytest.fixture
def server(tmp_path):
    config = ServiceConfig(
        port=0,
        workers=2,
        queue_size=8,
        cache=tmp_path / "service.sqlite",
        trace_root=tmp_path,
        request_timeout=60.0,
    )
    with SimulationServer(config).start() as srv:
        yield srv


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=60.0)


# --------------------------------------------------------------------------- #
# protocol validation
# --------------------------------------------------------------------------- #

class TestProtocol:
    def doc(self, trace):
        return request_document(trace=trace)

    def test_round_trip(self, trace):
        request = parse_request(self.doc(trace))
        assert len(request.trace) == len(trace)
        assert request.scheduler.name == "fifo"
        assert request.cluster == ClusterConfig(64, 64)

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            parse_request([1, 2, 3])

    def test_rejects_unknown_top_level_key(self, trace):
        doc = {**self.doc(trace), "slowstrat": 0.5}
        with pytest.raises(ProtocolError, match="unknown request key"):
            parse_request(doc)

    def test_rejects_unknown_config_key(self, trace):
        doc = self.doc(trace)
        doc["config"]["slowstrat"] = 0.5
        with pytest.raises(ProtocolError, match="unknown config key"):
            parse_request(doc)

    def test_rejects_unknown_scheduler(self, trace):
        doc = {**self.doc(trace), "scheduler": "does-not-exist"}
        with pytest.raises(ProtocolError, match="cannot build scheduler"):
            parse_request(doc)

    def test_rejects_bad_scheduler_kind(self, trace):
        doc = {**self.doc(trace), "scheduler": {"kind": "nope", "name": "fifo"}}
        with pytest.raises(ProtocolError, match="unknown scheduler kind"):
            parse_request(doc)

    def test_rejects_trace_and_trace_path(self, trace):
        doc = {**self.doc(trace), "trace_path": "x.json"}
        with pytest.raises(ProtocolError, match="exactly one"):
            parse_request(doc)

    def test_rejects_bad_slots(self, trace):
        doc = self.doc(trace)
        doc["config"]["map_slots"] = 0
        with pytest.raises(ProtocolError, match="positive integer"):
            parse_request(doc)

    def test_rejects_bad_slowstart(self, trace):
        doc = self.doc(trace)
        doc["config"]["slowstart"] = 1.5
        with pytest.raises(ProtocolError, match="slowstart"):
            parse_request(doc)

    def test_rejects_nan_share_weight(self, trace):
        # The server reads bodies with json.loads, which accepts a bare NaN.
        doc = self.doc(trace)
        doc["scheduler"] = json.loads(
            '{"kind":"registry","name":"fair","kwargs":{"weights":{"Sort":NaN}}}'
        )
        with pytest.raises(ProtocolError, match="cannot build scheduler") as excinfo:
            parse_request(doc)
        assert excinfo.value.status == 400

    def test_trace_path_requires_root(self, trace):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request({"trace_path": "t.json"}, trace_root=None)
        assert excinfo.value.status == 403

    def test_trace_path_escape_rejected(self, tmp_path):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request({"trace_path": "../../etc/passwd"}, trace_root=tmp_path)
        assert excinfo.value.status == 403

    def test_trace_path_missing_is_404(self, tmp_path):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request({"trace_path": "nope.json"}, trace_root=tmp_path)
        assert excinfo.value.status == 404

    def test_trace_path_loads(self, trace, tmp_path):
        save_trace(trace, tmp_path / "t.json")
        request = parse_request({"trace_path": "t.json"}, trace_root=tmp_path)
        assert len(request.trace) == len(trace)

    def test_empty_trace_rejected(self):
        with pytest.raises(ProtocolError, match="no jobs"):
            parse_request({"trace": trace_to_dict([])})

    @pytest.mark.parametrize("other", [{"trace_path": "t.json"}, "trace"])
    def test_rejects_trace_digest_with_another_source(self, trace, tmp_path, other):
        doc = request_document(trace_digest=trace_digest(trace))
        doc.update(other if isinstance(other, dict) else {"trace": trace_to_dict(trace)})
        with pytest.raises(ProtocolError, match="exactly one") as excinfo:
            parse_request(doc, trace_root=tmp_path, trace_cache=TraceCache(4))
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("bad", [
        "A" * 32, "g" * 32, "0" * 31, "0" * 33, "0" * 32 + "\n", "", 7, ["0" * 32],
    ])
    def test_rejects_malformed_trace_digest(self, bad):
        with pytest.raises(ProtocolError, match="32 lowercase hex") as excinfo:
            parse_request({"trace_digest": bad}, trace_cache=TraceCache(4))
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("cache", [TraceCache(4), TraceCache(0), None])
    def test_unknown_trace_digest_is_404(self, trace, cache):
        digest = trace_digest(trace)
        with pytest.raises(UnknownTraceError) as excinfo:
            parse_request(request_document(trace_digest=digest), trace_cache=cache)
        assert excinfo.value.status == 404
        assert excinfo.value.digest == digest

    def test_inline_trace_is_remembered_under_its_digest(self, trace):
        cache = TraceCache(4)
        inline = parse_request(request_document(trace=trace), trace_cache=cache)
        assert inline.digest == trace_digest(trace)
        by_digest = parse_request(
            request_document(trace_digest=inline.digest, scheduler="fair"),
            trace_cache=cache,
        )
        assert by_digest.trace is inline.trace
        assert by_digest.digest == inline.digest
        assert by_digest.scheduler.name == "fair"
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 0, 1)

    def test_refused_inline_request_is_not_remembered(self, trace):
        cache = TraceCache(4)
        with pytest.raises(ProtocolError, match="cannot build scheduler"):
            parse_request(
                request_document(trace=trace, scheduler="does-not-exist"),
                trace_cache=cache,
            )
        assert len(cache) == 0

    def test_request_document_takes_one_trace_source(self, trace):
        with pytest.raises(ValueError, match="exactly one"):
            request_document(trace=trace, trace_digest=trace_digest(trace))
        with pytest.raises(ValueError, match="exactly one"):
            request_document()

    def test_request_document_rejects_inline_spec(self, trace):
        from repro.schedulers import FIFOScheduler

        spec = SchedulerSpec.inline("adhoc", FIFOScheduler)
        with pytest.raises(ValueError, match="inline"):
            request_document(trace=trace, scheduler=spec)


# --------------------------------------------------------------------------- #
# job manager (no HTTP)
# --------------------------------------------------------------------------- #

class TestJobManager:
    def request(self, trace, **kwargs):
        return parse_request(request_document(trace=trace, **kwargs))

    def test_executes_and_caches(self, trace, tmp_path):
        cache = ResultCache(tmp_path / "c.sqlite")
        with JobManager(workers=1, queue_size=4, cache=cache) as manager:
            request = self.request(trace)
            first = manager.submit(request)
            assert first.wait(60)
            assert first.error is None
            assert first.outcome is not None and not first.outcome.cached
            second = manager.submit(request)
            assert second.wait(5)
            assert second.outcome is not None and second.outcome.cached
            assert second.outcome.result.event_digest == first.outcome.result.event_digest
            assert manager.executed == 1
            assert manager.front_hits == 1
        cache.close()

    def test_new_request_digests_its_trace_once(self, trace, monkeypatch):
        from repro.parallel import executor
        from repro.service import protocol

        calls = []
        real = protocol.trace_digest

        def counting(t):
            calls.append(len(t))
            return real(t)

        monkeypatch.setattr(protocol, "trace_digest", counting)
        monkeypatch.setattr(executor, "trace_digest", counting)
        with JobManager(workers=1, queue_size=4) as manager:
            ticket = manager.submit(self.request(trace))
            assert ticket.wait(60)
            assert ticket.error is None and not ticket.outcome.cached
        assert calls == [len(trace)]
        assert ticket.outcome.result.event_digest == local_digest(trace)

    def test_queue_overflow_raises(self, trace):
        release = threading.Event()
        started = threading.Event()

        def stall(request):
            started.set()
            release.wait(30)
            raise RuntimeError("stalled job never completes normally")

        manager = JobManager(workers=1, queue_size=1, cache=None, execute_fn=stall)
        try:
            request = self.request(trace)
            blocked = manager.submit(request)   # occupies the worker
            assert started.wait(10)
            queued = manager.submit(request)    # fills the queue
            with pytest.raises(QueueFullError) as excinfo:
                manager.submit(request)         # bounces
            assert excinfo.value.retry_after >= 1.0
            release.set()
            assert blocked.wait(10) and queued.wait(10)
        finally:
            release.set()
            manager.close()

    def test_submit_after_close_raises(self, trace):
        manager = JobManager(workers=1, queue_size=2, cache=None)
        manager.close()
        with pytest.raises(ServiceClosedError):
            manager.submit(self.request(trace))

    def test_drain_completes_queued_jobs(self, trace):
        gate = threading.Event()
        ran = []

        def slow(request):
            gate.wait(10)
            ran.append(request.digest)
            task = request.task()
            [outcome] = simulate_many({request.digest: request.trace}, [task], cache=None)
            return outcome

        manager = JobManager(workers=1, queue_size=4, cache=None, execute_fn=slow)
        tickets = [manager.submit(self.request(trace)) for _ in range(3)]
        gate.set()
        manager.close(drain=True)  # must not deadlock; finishes the backlog
        assert all(t.done for t in tickets)
        assert all(t.error is None for t in tickets)
        assert len(ran) == 3

    def test_no_drain_fails_queued_jobs(self, trace):
        gate = threading.Event()

        def slow(request):
            gate.wait(10)
            task = request.task()
            [outcome] = simulate_many({request.digest: request.trace}, [task], cache=None)
            return outcome

        manager = JobManager(workers=1, queue_size=4, cache=None, execute_fn=slow)
        tickets = [manager.submit(self.request(trace)) for _ in range(3)]
        closer = threading.Thread(target=lambda: manager.close(drain=False))
        closer.start()
        gate.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert all(t.done for t in tickets)
        # The in-flight job finished; the backlog was cancelled.
        cancelled = [t for t in tickets if isinstance(t.error, ServiceClosedError)]
        assert len(cancelled) >= 1

    def test_worker_exception_reaches_ticket(self, trace):
        def boom(request):
            raise RuntimeError("engine exploded")

        with JobManager(workers=1, queue_size=2, cache=None, execute_fn=boom) as manager:
            ticket = manager.submit(self.request(trace))
            assert ticket.wait(10)
            assert isinstance(ticket.error, RuntimeError)


# --------------------------------------------------------------------------- #
# HTTP round trips
# --------------------------------------------------------------------------- #

class TestServiceEndToEnd:
    def test_digest_identical_to_local_replay(self, client, trace):
        reply = client.replay(trace, scheduler="fifo")
        assert not reply.cached
        assert reply.event_digest == local_digest(trace, "fifo")
        assert reply.result.makespan > 0
        assert reply.request_id.startswith("req-")

    def test_repeat_is_cache_hit_without_resimulation(self, server, client, trace):
        client.replay(trace, scheduler="fifo")
        executed_before = server.manager.executed
        reply = client.replay(trace, scheduler="fifo")
        assert reply.cached
        assert server.manager.executed == executed_before  # no re-simulation
        assert reply.event_digest == local_digest(trace, "fifo")

    def test_trace_path_request(self, server, client, trace, tmp_path):
        save_trace(trace, tmp_path / "shared.json")
        reply = client.replay(trace_path="shared.json")
        assert reply.event_digest == local_digest(trace)

    def test_concurrent_clients_each_get_their_own_result(self, client, trace):
        schedulers = ["fifo", "maxedf", "minedf", "fair"] * 2
        expected = {name: local_digest(trace, name) for name in set(schedulers)}
        replies: dict[int, object] = {}
        errors: list[BaseException] = []

        def hammer(index: int, name: str) -> None:
            try:
                replies[index] = (name, client.replay(trace, scheduler=name))
            except BaseException as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i, name))
            for i, name in enumerate(schedulers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert len(replies) == len(schedulers)
        for name, reply in replies.values():
            assert reply.event_digest == expected[name], name

    def test_validation_errors_are_400(self, server):
        client = ServiceClient(server.url)
        status, _, payload = client._request(
            "/simulate", {"trace": {"schema_version": 99, "jobs": []}}
        )
        assert status == 400
        assert b"error" in payload

    def test_nan_share_weight_is_400(self, server, trace):
        doc = request_document(trace=trace)
        doc["scheduler"] = {
            "kind": "registry", "name": "fair", "kwargs": {"weights": {"Sort": math.nan}}
        }
        status, _, payload = ServiceClient(server.url)._request("/simulate", doc)
        assert status == 400
        assert b"weight must be finite" in payload

    def test_unknown_endpoint_404(self, client):
        status, _, _ = client._request("/nope", {"x": 1})
        assert status == 404

    def test_health_endpoint(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0

    def test_metrics_reflect_cache_hit(self, client, trace):
        client.replay(trace, scheduler="maxedf")
        client.replay(trace, scheduler="maxedf")
        page = client.metrics()
        assert 'simmr_requests_total{status="ok"} 1' in page
        assert 'simmr_requests_total{status="cached"} 1' in page
        # The first replay's reference missed before its inline send.
        assert 'simmr_requests_total{status="unknown_trace"} 1' in page
        assert 'simmr_cache_lookups_total{outcome="hit"} 1' in page
        assert 'simmr_trace_cache_lookups_total{outcome="hit"} 1' in page
        assert "simmr_request_latency_seconds_count 3" in page
        assert 'quantile="0.95"' in page

    def test_request_timeout_yields_504(self, tmp_path, trace):
        gate = threading.Event()

        def stall(request):
            gate.wait(30)
            raise RuntimeError("unreached in a passing test")

        manager = JobManager(workers=1, queue_size=4, cache=None, execute_fn=stall)
        config = ServiceConfig(port=0, request_timeout=0.2)
        with SimulationServer(config, manager=manager).start() as server:
            client = ServiceClient(server.url)
            with pytest.raises(ServiceError) as excinfo:
                client.replay(trace)
            assert excinfo.value.status == 504
            gate.set()


@pytest.fixture
def sent(monkeypatch):
    """Every request body the service clients send, in order."""
    bodies: list[dict] = []
    real = ServiceClient._request

    def recording(self, path, body=None):
        if body is not None:
            bodies.append(body)
        return real(self, path, body)

    monkeypatch.setattr(ServiceClient, "_request", recording)
    return bodies


def body_bytes(body) -> int:
    return len(json.dumps(body).encode())


def serve(tmp_path, **config):
    return SimulationServer(
        ServiceConfig(port=0, workers=1, cache=tmp_path / "s.sqlite", **config)
    ).start()


class TestTraceByDigest:
    def test_repeat_replay_sends_no_trace(self, client, trace, sent):
        digest = trace_digest(trace)
        first = client.replay(trace, scheduler="fifo")
        assert [set(b) & {"trace", "trace_digest"} for b in sent] == [
            {"trace_digest"}, {"trace"},
        ]
        assert sent[0]["trace_digest"] == digest
        inline_bytes = body_bytes(sent[1])
        del sent[:]
        second = client.replay(trace, scheduler="minedf")
        third = client.replay(trace, scheduler="fifo")
        assert [b.get("trace_digest") for b in sent] == [digest, digest]
        assert not any("trace" in b for b in sent)
        assert sum(map(body_bytes, sent)) < inline_bytes
        assert not first.cached and not second.cached and third.cached
        assert first.event_digest == third.event_digest == local_digest(trace, "fifo")
        assert second.event_digest == local_digest(trace, "minedf")

    def test_unknown_digest_answers_404_naming_it(self, server):
        digest = "0123456789abcdef" * 2
        status, _, payload = ServiceClient(server.url)._request(
            "/simulate", {"trace_digest": digest}
        )
        assert status == 404
        body = json.loads(payload)
        assert body["trace_digest"] == digest
        assert "unknown trace digest" in body["error"]

    def test_other_404_is_not_answered_inline(self, server, trace, sent):
        client = ServiceClient(server.url + "/elsewhere")
        with pytest.raises(ServiceError) as excinfo:
            client.replay(trace)
        assert excinfo.value.status == 404
        assert len(sent) == 1 and "trace" not in sent[0]

    def test_eviction_falls_back_to_inline(self, tmp_path, trace, sent):
        other = make_trace(jobs=3, seed=9)
        with serve(tmp_path, trace_cache_size=1) as server:
            client = ServiceClient(server.url, timeout=60.0)
            replies = [client.replay(t) for t in (trace, other, trace)]
            stats = server.trace_cache.stats()
        # Each replay missed by reference and succeeded inline.
        assert ["trace" in b for b in sent] == [False, True] * 3
        assert stats.evictions == 2 and stats.entries == 1
        assert [r.event_digest for r in replies] == [
            local_digest(trace), local_digest(other), local_digest(trace),
        ]
        assert replies[2].cached

    def test_zero_trace_cache_sends_every_trace_inline(self, tmp_path, trace, sent):
        with serve(tmp_path, trace_cache_size=0) as server:
            assert server.trace_cache is None
            client = ServiceClient(server.url, timeout=60.0)
            replies = [client.replay(trace, scheduler=name)
                       for name in ("fifo", "fifo", "maxedf")]
            page = client.metrics()
        assert ["trace" in b for b in sent] == [False, True] * 3
        assert [r.event_digest for r in replies] == [
            local_digest(trace, "fifo"), local_digest(trace, "fifo"),
            local_digest(trace, "maxedf"),
        ]
        assert [r.cached for r in replies] == [False, True, False]
        assert 'simmr_requests_total{status="unknown_trace"} 3' in page


class TestBackpressure:
    @pytest.fixture
    def saturated(self, trace):
        """A server whose single worker is held, with a 1-slot queue."""
        release = threading.Event()
        started = threading.Event()

        def stall(request):
            started.set()
            release.wait(30)
            task = request.task()
            [outcome] = simulate_many({request.digest: request.trace}, [task], cache=None)
            return outcome

        manager = JobManager(workers=1, queue_size=1, cache=None, execute_fn=stall)
        config = ServiceConfig(port=0, request_timeout=60.0)
        server = SimulationServer(config, manager=manager).start()
        try:
            client = ServiceClient(server.url, timeout=60.0)
            waiters = [
                threading.Thread(target=client.replay, args=(trace,), daemon=True)
                for _ in range(2)
            ]
            waiters[0].start()
            assert started.wait(10)  # worker occupied
            waiters[1].start()       # queue slot occupied
            deadline = threading.Event()
            for _ in range(100):
                if server.manager.depth >= 1:
                    break
                deadline.wait(0.05)
            yield server, client, release, waiters
        finally:
            release.set()
            server.shutdown()

    def test_overflow_is_503_with_retry_after(self, saturated, trace):
        server, client, release, waiters = saturated
        with pytest.raises(ServiceRejected) as excinfo:
            client.replay(trace)
        assert excinfo.value.retry_after >= 1.0
        release.set()
        for waiter in waiters:
            waiter.join(timeout=60)
            assert not waiter.is_alive()
        page = client.metrics()
        assert 'simmr_requests_total{status="rejected"} 1' in page

    def test_client_retries_honour_retry_after(self, saturated, trace):
        server, client, release, waiters = saturated
        slept: list[float] = []

        def fake_sleep(seconds: float) -> None:
            slept.append(seconds)
            release.set()  # unblock the worker so the retry succeeds

        retrying = ServiceClient(server.url, timeout=60.0, sleep=fake_sleep)
        reply = retrying.replay(trace, max_retries=5)
        assert reply.event_digest == local_digest(trace)
        assert slept and slept[0] >= 1.0

    def test_shutdown_mid_flight_drains_without_deadlock(self, saturated, trace):
        server, client, release, waiters = saturated
        release.set()
        server.shutdown()  # must complete every queued job and return
        for waiter in waiters:
            waiter.join(timeout=60)
            assert not waiter.is_alive()


# --------------------------------------------------------------------------- #
# metrics unit behaviour
# --------------------------------------------------------------------------- #

class TestServiceMetrics:
    def test_quantiles_over_reservoir(self):
        metrics = ServiceMetrics()
        for value in range(1, 101):
            metrics.observe_latency(value / 100.0)
        p50, p95 = metrics.latency_quantiles(0.50, 0.95)
        assert 0.45 <= p50 <= 0.55
        assert 0.90 <= p95 <= 1.00

    def test_render_contains_all_series(self):
        metrics = ServiceMetrics()
        metrics.count_request("ok")
        page = metrics.render(queue_depth=3, in_flight=1, workers=2,
                              cache_hits=4, cache_misses=6)
        assert "simmr_queue_depth 3" in page
        assert "simmr_jobs_in_flight 1" in page
        assert "simmr_workers 2" in page
        assert "simmr_cache_hit_rate 0.4" in page
        assert 'simmr_requests_total{status="ok"} 1' in page
        assert 'simmr_requests_total{status="timeout"} 0' in page

    def test_empty_reservoir_renders_zeros(self):
        page = ServiceMetrics().render()
        assert 'simmr_request_latency_seconds{quantile="0.5"} 0.000000' in page
        assert "simmr_request_latency_seconds_count 0" in page


# --------------------------------------------------------------------------- #
# server-side cache file reuse across restarts
# --------------------------------------------------------------------------- #

def test_cache_survives_server_restart(tmp_path, trace):
    cache_path = tmp_path / "persistent.sqlite"
    config = ServiceConfig(port=0, cache=cache_path)
    with SimulationServer(config).start() as first:
        reply = ServiceClient(first.url).replay(trace)
        assert not reply.cached
    with SimulationServer(ServiceConfig(port=0, cache=cache_path)).start() as second:
        reply = ServiceClient(second.url).replay(trace)
        assert reply.cached


def test_cache_path_is_created(tmp_path):
    nested = tmp_path / "deep" / "cache.sqlite"
    config = ServiceConfig(port=0, cache=nested)
    with SimulationServer(config).start():
        assert nested.parent.is_dir()
    assert Path(nested).exists()
