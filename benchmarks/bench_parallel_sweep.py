"""Parallel sweep executor: speedup, cache hit rate, digest identity.

The tentpole claims of :mod:`repro.parallel`, measured:

* **identity** — serial (``workers=0``), parallel (``workers=4``) and
  cache-restored executions of the same grid produce byte-identical
  event streams (one ``event_digest`` comparison per cell);
* **reuse** — a warm re-run of the same sweep is served almost entirely
  from the content-addressed cache (>90% hit rate);
* **speedup** — fanning the grid over 4 workers beats the serial loop
  when the hardware has the cores.  The speedup assertion is gated on
  ``os.cpu_count()``: on a single-core container parallelism cannot
  help (the pool only adds IPC overhead), so the measured ratio is
  recorded honestly in the report instead of asserted.

A second bench (``test_columnar_fanout``) measures the columnar trace
subsystem end to end: cold-parse time of the binary format vs JSON,
bytes shipped per worker through the ``.simmr`` spill file (O(1) in the
worker count, far below the pickled job list), a pool worker's attach
time for that file (first attach in a fresh worker, then a repeat), and
event-digest identity across every execution path — serial, pooled at
2 and 4 workers, and the HTTP service.

Artifacts: prints the timing tables and writes
``BENCH_parallel_sweep.json`` + ``BENCH_columnar.json`` at the repo
root for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import statistics
from pathlib import Path

from repro.core import ClusterConfig
from repro.core.walltime import elapsed_since, perf_seconds
from repro.experiments.performance import make_performance_trace
from repro.parallel import ResultCache
from repro.sweep import run_sweep

REPO_ROOT = Path(__file__).resolve().parent.parent

SCHEDULERS = ("fifo", "maxedf", "minedf", "fair")
CLUSTERS = (ClusterConfig(32, 32), ClusterConfig(64, 64), ClusterConfig(128, 128))
SLOWSTARTS = (0.05, 1.0)
PARALLEL_WORKERS = 4

#: Acceptance floor for the warm-cache hit rate.
MIN_WARM_HIT_RATE = 0.9
#: Acceptance floor for the 4-worker speedup — asserted only when the
#: host actually has that many cores.
MIN_SPEEDUP_AT_4_CORES = 2.0


def _timed_sweep(trace, **kwargs):
    start = perf_seconds()
    result = run_sweep(
        trace,
        schedulers=SCHEDULERS,
        clusters=CLUSTERS,
        slowstarts=SLOWSTARTS,
        **kwargs,
    )
    return result, elapsed_since(start)


def test_parallel_sweep(benchmark, once, tmp_path):
    trace = make_performance_trace(120, mean_interarrival=50.0, seed=0)
    cpus = os.cpu_count() or 1

    # Headline number, via the shared harness: the serial grid.
    once(benchmark, _timed_sweep, trace)

    serial, serial_s = _timed_sweep(trace)
    parallel, parallel_s = _timed_sweep(trace, workers=PARALLEL_WORKERS)

    cache_path = tmp_path / "results.sqlite"
    cold, cold_s = _timed_sweep(trace, workers=PARALLEL_WORKERS, cache=cache_path)
    warm, warm_s = _timed_sweep(trace, cache=cache_path)
    with ResultCache(cache_path) as cache:
        stored = len(cache)

    cells = len(serial.cells)
    digests = [c.event_digest for c in serial.cells]
    hit_rate = warm.cache_hits / cells
    speedup = serial_s / parallel_s

    report = {
        "cells": cells,
        "trace_jobs": len(trace),
        "cpu_count": cpus,
        "workers": PARALLEL_WORKERS,
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "speedup": speedup,
        "cold_cached_seconds": cold_s,
        "warm_seconds": warm_s,
        "warm_cache_hit_rate": hit_rate,
        "warm_speedup_vs_serial": serial_s / warm_s,
        "cached_results_stored": stored,
        "digests_identical_serial_parallel_warm": True,
    }
    (REPO_ROOT / "BENCH_parallel_sweep.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    print(
        f"\n{cells}-cell sweep over {len(trace)} jobs ({cpus} core(s)):"
        f"\nserial            : {serial_s:.2f}s"
        f"\n{PARALLEL_WORKERS} workers         : {parallel_s:.2f}s "
        f"({speedup:.2f}x)"
        f"\nwarm cache        : {warm_s:.2f}s "
        f"({serial_s / warm_s:.1f}x, {hit_rate:.0%} hits)"
    )

    # Identity: every execution path replays the same event stream.
    assert all(digests)
    for other in (parallel, cold, warm):
        assert [c.event_digest for c in other.cells] == digests

    # Reuse: the warm run is almost pure lookups, and every cacheable
    # cell made it to disk.
    assert hit_rate > MIN_WARM_HIT_RATE
    assert stored == cells

    # Speedup: only meaningful with the cores to back it; on fewer
    # cores the ratio is recorded in the report, not asserted.
    if cpus >= PARALLEL_WORKERS:
        assert speedup >= MIN_SPEEDUP_AT_4_CORES
    # The warm cache must beat re-simulating regardless of cores.
    assert warm_s < serial_s


# --------------------------------------------------------------------------- #
# columnar trace store + zero-copy fan-out
# --------------------------------------------------------------------------- #

def _timed(fn, *args, **kwargs):
    start = perf_seconds()
    result = fn(*args, **kwargs)
    return result, elapsed_since(start)


#: Fresh workers timed per attach measurement.
ATTACH_ROUNDS = 5


def _timed_attach(path):
    """In a pool worker: (first, repeat) seconds to attach the spill file."""
    from repro.parallel.executor import _attach_file
    from repro.trace import binfmt  # noqa: F401 - import outside the timing

    return tuple(_timed(_attach_file, path)[1] for _ in range(2))


def test_columnar_fanout(benchmark, once, tmp_path):
    from repro.parallel.executor import (
        SchedulerSpec,
        SimTask,
        _PublishedTraces,
        last_fanout_stats,
        simulate_many,
    )
    from repro.sanitize.digest import trace_digest
    from repro.service import ServiceClient, ServiceConfig, SimulationServer
    from repro.trace.binfmt import load_trace_bin, save_trace_bin
    from repro.trace.schema import load_trace, save_trace

    # The largest trace any bench builds: 500 jobs, ~57k durations.
    trace = make_performance_trace(500, mean_interarrival=100.0, seed=0)
    json_path = tmp_path / "perf.json"
    bin_path = tmp_path / "perf.simmr"
    save_trace(trace, json_path)
    bin_bytes = save_trace_bin(trace, bin_path)
    json_bytes = json_path.stat().st_size

    # Cold-parse comparison (best of 3 to shed filesystem noise).
    json_s = min(_timed(load_trace, json_path)[1] for _ in range(3))
    from_bin, _ = _timed(load_trace_bin, bin_path)
    bin_s = min(_timed(load_trace_bin, bin_path)[1] for _ in range(3))
    digest = trace_digest(trace)
    assert trace_digest(from_bin) == digest

    # Fan-out accounting: the same 4-task batch at 2 and 4 workers.
    # Headline number = the 2-worker batch.
    tasks = [
        SimTask(trace_id="t", scheduler=SchedulerSpec(name=name))
        for name in SCHEDULERS
    ]
    traces = {"t": trace}
    serial = simulate_many(traces, tasks, workers=0, cache=None)
    reference = [o.result.event_digest for o in serial]
    assert all(reference)

    once(benchmark, simulate_many, traces, tasks, workers=2, cache=None)

    shipping: dict[int, dict] = {}
    path_digests = {"serial": reference}
    for workers in (2, 4):
        outcomes = simulate_many(traces, tasks, workers=workers, cache=None)
        path_digests[f"pool@{workers}"] = [o.result.event_digest for o in outcomes]
        shipping[workers] = last_fanout_stats().to_dict()

    # Worker attach: map the spill file, re-check its digest, rebuild
    # the job views.  The file was just written, so its pages are in the
    # page cache; each round starts a fresh worker.
    attach = []
    with _PublishedTraces(traces, {"t": digest}, 1) as published:
        for _ in range(ATTACH_ROUNDS):
            with multiprocessing.get_context("spawn").Pool(1) as pool:
                attach.append(pool.apply(_timed_attach, (published.sources["t"],)))
    attach_first_s = statistics.median(first for first, _ in attach)
    attach_repeat_s = statistics.median(repeat for _, repeat in attach)
    # What each worker would receive if the job objects were pickled.
    pickled_bytes = len(pickle.dumps(list(trace)))

    # The service path: a served binary trace, replayed over HTTP.
    config = ServiceConfig(port=0, workers=1, trace_root=tmp_path, cache=False)
    with SimulationServer(config) as server:
        server.start()
        client = ServiceClient(server.url)
        reply, first_s = _timed(
            client.replay, trace_path="perf.simmr", scheduler="fifo"
        )
        _, second_s = _timed(
            client.replay, trace_path="perf.simmr", scheduler="fifo"
        )
        trace_cache = server.trace_cache.stats()
    path_digests["service"] = [reply.event_digest]

    ship2, ship4 = shipping[2], shipping[4]
    report = {
        "trace_jobs": len(trace),
        "trace_digest": digest,
        "json_bytes": json_bytes,
        "binary_bytes": bin_bytes,
        "binary_compression": json_bytes / bin_bytes,
        "json_parse_seconds": json_s,
        "binary_load_seconds": bin_s,
        "binary_parse_speedup": json_s / bin_s,
        "shipping": shipping,
        "pickled_trace_bytes": pickled_bytes,
        "attach_rounds": ATTACH_ROUNDS,
        "attach_first_seconds": attach_first_s,
        "attach_repeat_seconds": attach_repeat_s,
        "service_first_request_seconds": first_s,
        "service_cached_trace_request_seconds": second_s,
        "service_trace_cache": {
            "hits": trace_cache.hits,
            "misses": trace_cache.misses,
        },
        "digests_identical_all_paths": True,
    }
    (REPO_ROOT / "BENCH_columnar.json").write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"\ncolumnar store over {len(trace)} jobs:"
        f"\nJSON parse        : {json_s * 1e3:.1f}ms ({json_bytes:,} bytes)"
        f"\nbinary load       : {bin_s * 1e3:.1f}ms ({bin_bytes:,} bytes, "
        f"{json_s / bin_s:.0f}x faster)"
        f"\nper-worker bytes  : {ship2['bytes_per_worker']} B at 2w, "
        f"{ship4['bytes_per_worker']} B at 4w "
        f"(payload {ship4['payload_bytes']:,} B once)"
        f"\nworker attach     : {attach_first_s * 1e3:.1f}ms first, "
        f"{attach_repeat_s * 1e3:.1f}ms repeat (median of {ATTACH_ROUNDS})"
        f"\npickled job list  : {pickled_bytes:,} B"
        f"\nservice trace LRU : {trace_cache.hits} hit(s), "
        f"{trace_cache.misses} miss(es)"
    )

    # Identity: every path replays the same event stream.
    for path, digests in path_digests.items():
        assert digests[0] == reference[0], path
        if len(digests) == len(reference):
            assert digests == reference, path

    # Binary load must beat the JSON parse outright.
    assert bin_s < json_s

    # O(1) shipping: the spill file does not grow with the worker count,
    # and the per-worker path stays far below the pickled job list.
    assert ship4["payload_bytes"] == ship2["payload_bytes"] == bin_bytes
    assert ship4["bytes_per_worker"] == ship2["bytes_per_worker"]
    assert ship4["bytes_per_worker"] < pickled_bytes / 100

    # The service's second request was served from the parsed-trace LRU.
    assert trace_cache.misses == 1 and trace_cache.hits >= 1
