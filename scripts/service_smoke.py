#!/usr/bin/env python
"""End-to-end smoke test of the real `simmr serve` process.

Unlike tests/test_service.py (in-process server objects), this drives
the shipped entrypoint exactly the way an operator would:

1. launch ``python -m repro serve --port 0`` as a subprocess;
2. discover the ephemeral port from the stable "listening on" line;
3. submit one registry replay and one ``policy`` replay (a built-in
   example tree) of the same trace over HTTP and assert each
   ``event_digest`` equals a local :func:`simulate_many` replay of the
   same request, that the first reply's ``result`` document has
   ``format_version`` 3 and decodes to the local replay's per-job
   completion times, and that ``/metrics`` shows the second one found
   the trace in the server's trace cache (the client named it by digest
   and did not send it again);
4. submit scheduler *source code* under the removed
   ``inline-certified`` kind and assert the unknown-kind 400, whose
   message points at ``policy`` (the only kind carrying user logic);
5. send SIGTERM and assert the graceful drain: exit code 0 and the
   "drained" farewell on stdout.

Exits non-zero on any failure.  Run: ``python scripts/service_smoke.py``
(CI's service-smoke job does).
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import ClusterConfig  # noqa: E402
from repro.parallel import SchedulerSpec, SimTask, simulate_many  # noqa: E402
from repro.policy import (  # noqa: E402
    canonical_policy_json,
    example_policy,
    parse_policy,
)
from repro.service import ServiceClient, ServiceError  # noqa: E402
from repro.trace.arrivals import ExponentialArrivals  # noqa: E402
from repro.trace.synthetic import SyntheticTraceGen  # noqa: E402
from repro.workloads.apps import make_app_specs  # noqa: E402

LISTENING = re.compile(r"simmr service listening on (http://[\w.]+:\d+)")
TRACE_CACHE_HITS = re.compile(
    r'^simmr_trace_cache_lookups_total\{outcome="hit"\} (\d+)$', re.MULTILINE
)
STARTUP_LINES = 50  # give up if the banner has not appeared by then
RESULT_FORMAT_VERSION = 3


class RecordingClient(ServiceClient):
    """A client that keeps the body of its last accepted /simulate reply."""

    last_reply = b""

    def _request(self, path, body=None):
        status, headers, payload = super()._request(path, body)
        if path == "/simulate" and status == 200:
            self.last_reply = payload
        return status, headers, payload


def wait_for_url(proc: subprocess.Popen) -> str:
    assert proc.stdout is not None
    for _ in range(STARTUP_LINES):
        line = proc.stdout.readline()
        if not line:
            break
        sys.stdout.write(f"[serve] {line}")
        match = LISTENING.search(line)
        if match:
            return match.group(1)
    raise AssertionError("server never printed its listening line")


def main() -> int:
    gen = SyntheticTraceGen(
        list(make_app_specs().values()), ExponentialArrivals(60.0), seed=5
    )
    trace = gen.generate(6)
    cluster = ClusterConfig(map_slots=32, reduce_slots=32)

    # Its schedule differs from maxedf's here, so a reply served from the
    # wrong cache entry cannot match.
    policy = SchedulerSpec(
        kind="policy", name="deadline-aware",
        kwargs=(("tree", canonical_policy_json(
            parse_policy(example_policy("deadline-aware"))
        )),),
    )
    local, local_policy = simulate_many(
        {"t": trace},
        [SimTask(trace_id="t", cluster=cluster, scheduler=spec)
         for spec in (SchedulerSpec(kind="registry", name="maxedf"), policy)],
        cache=None,
    )
    print(f"local digest: {local.result.event_digest}")
    print(f"local policy digest: {local_policy.result.event_digest}")

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--cache-path", str(Path(tmp) / "smoke.sqlite")],
            cwd=REPO_ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        try:
            url = wait_for_url(proc)
            client = RecordingClient(url, timeout=120.0)
            reply = client.replay(trace, scheduler="maxedf", cluster=cluster)
            print(f"served digest: {reply.event_digest} "
                  f"(cached={reply.cached}, {reply.request_id})")
            assert reply.event_digest == local.result.event_digest, \
                "service digest diverges from local replay"
            document = json.loads(client.last_reply)["result"]
            print(f"result document: format_version {document['format_version']}, "
                  f"job columns {sorted(document['jobs'])}")
            assert document["format_version"] == RESULT_FORMAT_VERSION, \
                "reply's result document is not in the columnar format"
            served_times = [j.completion_time for j in reply.result.jobs]
            assert served_times == [j.completion_time for j in local.result.jobs], \
                "decoded per-job completion times diverge from local replay"

            reply = client.replay(trace, scheduler=policy, cluster=cluster)
            print(f"served policy digest: {reply.event_digest}")
            assert reply.event_digest == local_policy.result.event_digest, \
                "service policy digest diverges from local replay"
            hits = TRACE_CACHE_HITS.search(client.metrics())
            print(f"trace cache hits: {hits and hits.group(1)}")
            assert hits is not None and int(hits.group(1)) >= 1, \
                "the repeat replay did not find its trace by digest"

            source = SchedulerSpec(
                kind="inline-certified", name="TinyFifo",
                kwargs=(("source", "class TinyFifo:\n    pass\n"),),
            )
            try:
                client.replay(trace, scheduler=source, cluster=cluster)
            except ServiceError as exc:
                print(f"scheduler source refused: {exc.status} {exc.message}")
                assert exc.status == 400, f"expected 400, got {exc.status}"
                assert "'policy'" in exc.message, "400 does not point at policy"
            else:
                raise AssertionError("server accepted scheduler source code")

            proc.send_signal(signal.SIGTERM)
            remaining, _ = proc.communicate(timeout=30)
            sys.stdout.write("".join(f"[serve] {l}\n" for l in
                                     remaining.splitlines() if l))
            assert proc.returncode == 0, f"exit code {proc.returncode}"
            assert "drained" in remaining, "no graceful-drain farewell"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    print("service smoke OK: digests and decoded job columns verified, "
          "repeat trace sent by digest, "
          "scheduler source refused, SIGTERM drained cleanly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
