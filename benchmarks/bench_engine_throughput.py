"""Headline throughput: "SimMR can process over one million events per
second" (paper Sections I and IV-E).

Measures raw engine event throughput on a large saturated trace with
task recording disabled (the configuration a capacity-planning sweep
would use).  The headline number is the **columnar kernel**
(``ColumnarEngine``, see ``docs/engine-internals.md``); the reference
``SimulatorEngine`` loop is timed alongside it so the report carries the
kernel's speedup.  With the kernel, the pure-Python engine clears the
paper's one-million-events-per-second claim — the asserted floor.

Beyond the static headline, the report carries one row per kernel
*path* so the widened envelope is covered end to end:

* ``static_fifo`` — the vectorized multi-pass mode (the headline).
* ``static_fifo_digest`` — the same pass mode streaming the BLAKE2b
  event digest through a ``DigestRecorder``, as every sweep and service
  cell does, so the gate sees event emission and the digest too (the
  headline runs without them).  Both engines digest; the digests must
  match.
* ``fair`` — Fair via the group-share contract in replay mode.
* ``preemptive_fair`` — Fair with HFS-style preemption: live kills on
  the replay path.
* ``dynamic_priority`` — DynamicPriority via the same group-share
  contract; its 3x floor keeps it on the kernel (the gate fails a row
  that falls back to the object loop).
* ``preemptive_edf`` — MaxEDF+P on a deadline-decorated trace, on
  replay mode.  For a static policy both engines run the same heap loop
  with the same priority heaps, so a kernel-vs-object ratio would
  compare the loop with itself: this row times only the kernel (the
  object engine runs once, untimed, to check the event and kill
  counts), has no speedup floor, and the gate holds its events/s to
  the committed baseline at the headline's tolerance instead.  The
  Fair and DP rows clear 3x because the object engine's
  ``choose_next_*`` dispatch is far more expensive there.  See
  docs/performance.md.

The measured numbers are printed for EXPERIMENTS.md and written to
``BENCH_engine_throughput.json`` at the repo root, which doubles as the
input to ``scripts/perf_gate.py`` (fresh run vs committed baseline; the
gate also cross-checks ``trace_jobs``/``events_processed`` so a
workload change cannot masquerade as a throughput change, and fails any
path whose run regressed from the kernel to the object fallback).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core import ClusterConfig, ColumnarEngine, SimulatorEngine, TraceJob
from repro.experiments.performance import make_performance_trace
from repro.sanitize.digest import DigestRecorder
from repro.schedulers import (
    DynamicPriorityScheduler,
    FairScheduler,
    FIFOScheduler,
    MaxEDFScheduler,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_engine_throughput.json"

#: Hard floor asserted here — the paper's headline claim.  The
#: regression gate compares against the committed baseline instead,
#: with its own tolerance.
MIN_EVENTS_PER_SECOND = 1_000_000

#: The object-per-event loop must not silently rot either: the kernel
#: headline is only meaningful while the fallback stays comparable.
MIN_SPEEDUP = 3.0

#: Per-path kernel-vs-object floors enforced here and by the gate.
#: ``preemptive_edf`` has none: both engines run the same loop there
#: (module docstring).
PATH_FLOORS = {
    "static_fifo": 3.0,
    "static_fifo_digest": 4.0,
    "fair": 3.0,
    "preemptive_fair": 3.0,
    "dynamic_priority": 3.0,
}

CLUSTER = ClusterConfig(64, 64)
#: The dynamic/preemptive rows use a denser, smaller trace than the
#: headline: 150 jobs at 5s mean inter-arrival keeps the object-loop
#: timing under ~8s while the heavy contention (long job queues, so the
#: object loop's per-dispatch pool table is expensive) keeps the
#: kernel-vs-object ratio well clear of the floor and keeps pools
#: starved enough for Fair+P to preempt hundreds of tasks.
DYNAMIC_JOBS = 150
DYNAMIC_INTERARRIVAL = 5.0


def _merge_report(update: dict) -> dict:
    """Read-modify-write the bench JSON so each test adds its rows."""
    report: dict = {}
    if REPORT_PATH.exists():
        report = json.loads(REPORT_PATH.read_text())
    paths = {**report.get("paths", {}), **update.pop("paths", {})}
    report.update(update)
    if paths:
        report["paths"] = paths
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def _deadline_trace(n: int, mean_interarrival: float, seed: int) -> list[TraceJob]:
    """Performance trace with a 50/50 tight/loose deadline decoration."""
    rng = np.random.default_rng(seed)
    trace = []
    for tj in make_performance_trace(n, mean_interarrival=mean_interarrival, seed=seed):
        slack = rng.uniform(30, 120) if rng.random() < 0.5 else rng.uniform(500, 3000)
        trace.append(TraceJob(tj.profile, tj.submit_time, deadline=tj.submit_time + slack))
    return trace


def _time_engine(engine_factory, trace, rounds: int):
    """Best-of-N (result, events/s) for a freshly built engine per round."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        engine = engine_factory()
        start = time.perf_counter()
        result = engine.run(trace)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return result, engine, result.events_processed / best


def _bench_path(
    name: str,
    trace,
    make_scheduler,
    *,
    preemption: bool = False,
    expect_mode: str,
    kernel_rounds: int = 2,
    object_rounds: int = 1,
    digest: bool = False,
) -> dict:
    """Time one kernel path and check it against the object engine on
    the same workload; with ``digest`` both stream the event digest,
    which must agree.  Only rows with a floor time the object engine."""
    record = preemption  # task records are how kills are counted

    def factory(engine_cls):
        return lambda: engine_cls(
            CLUSTER, make_scheduler(), preemption=preemption, record_tasks=record,
            sanitizer=DigestRecorder() if digest else None,
        )

    resk, engine, kernel_eps = _time_engine(factory(ColumnarEngine), trace, kernel_rounds)
    assert engine.last_path == "kernel"
    assert engine.last_kernel_mode == expect_mode
    row = {
        "scheduler": make_scheduler().name,
        "trace_jobs": len(trace),
        "events_processed": resk.events_processed,
        "events_per_second": kernel_eps,
    }
    if name in PATH_FLOORS:
        reso, object_engine, object_eps = _time_engine(
            factory(SimulatorEngine), trace, object_rounds
        )
        row["object_events_per_second"] = object_eps
        row["speedup"] = kernel_eps / object_eps
        row["floor_speedup"] = PATH_FLOORS[name]
    else:
        # No ratio to hold: one untimed reference run for the checks.
        object_engine = factory(SimulatorEngine)()
        reso = object_engine.run(trace)
    assert reso.events_processed == resk.events_processed
    if digest:
        assert engine.sanitizer.hexdigest() == object_engine.sanitizer.hexdigest()
    row["engine_path"] = "kernel"
    row["kernel_mode"] = expect_mode
    if preemption:
        row["tasks_killed"] = sum(1 for r in resk.task_records if r.killed)
        assert row["tasks_killed"] == sum(1 for r in reso.task_records if r.killed)
    return row


def test_engine_event_throughput(benchmark):
    trace = make_performance_trace(500, mean_interarrival=100.0, seed=0)
    engine = ColumnarEngine(CLUSTER, FIFOScheduler(), record_tasks=False)

    result = benchmark.pedantic(engine.run, args=(trace,), rounds=3, iterations=1)
    assert engine.last_path == "kernel"
    assert engine.last_kernel_mode == "passes"
    eps = result.events_per_second
    _, _, object_eps = _time_engine(
        lambda: SimulatorEngine(CLUSTER, FIFOScheduler(), record_tasks=False),
        trace,
        rounds=3,
    )
    speedup = eps / object_eps
    _merge_report(
        {
            "trace_jobs": len(trace),
            "events_processed": result.events_processed,
            "events_per_second": eps,
            "engine": "columnar",
            "object_events_per_second": object_eps,
            "speedup": speedup,
            "asserted_floor": MIN_EVENTS_PER_SECOND,
            "paths": {
                "static_fifo": {
                    "scheduler": "FIFO",
                    "trace_jobs": len(trace),
                    "events_processed": result.events_processed,
                    "events_per_second": eps,
                    "object_events_per_second": object_eps,
                    "speedup": speedup,
                    "engine_path": "kernel",
                    "kernel_mode": "passes",
                    "floor_speedup": PATH_FLOORS["static_fifo"],
                }
            },
        }
    )
    print(
        f"\nengine throughput: {eps:,.0f} events/s over "
        f"{result.events_processed} events "
        f"(object loop {object_eps:,.0f} events/s, {speedup:.1f}x)"
    )
    assert eps > MIN_EVENTS_PER_SECOND
    assert speedup > MIN_SPEEDUP


def test_static_digest_path():
    """FIFO pass mode with the event digest on: emission and BLAKE2b."""
    trace = make_performance_trace(500, mean_interarrival=100.0, seed=0)
    row = _bench_path(
        "static_fifo_digest", trace, FIFOScheduler, expect_mode="passes",
        kernel_rounds=3, object_rounds=2, digest=True,
    )
    _merge_report({"paths": {"static_fifo_digest": row}})
    print(
        f"\nstatic_fifo_digest: {row['events_per_second']:,.0f} events/s over "
        f"{row['events_processed']} events (object "
        f"{row['object_events_per_second']:,.0f} events/s, {row['speedup']:.1f}x)"
    )
    assert row["speedup"] > PATH_FLOORS["static_fifo_digest"], row["speedup"]


def test_widened_envelope_paths():
    """Fair / Fair+P / DP / MaxEDF+P rows: replay-mode kernel vs object loop."""
    dense = make_performance_trace(
        DYNAMIC_JOBS, mean_interarrival=DYNAMIC_INTERARRIVAL, seed=0
    )
    deadlined = _deadline_trace(DYNAMIC_JOBS, DYNAMIC_INTERARRIVAL, seed=0)

    rows = {
        "fair": _bench_path("fair", dense, FairScheduler, expect_mode="replay"),
        "preemptive_fair": _bench_path(
            "preemptive_fair",
            dense,
            lambda: FairScheduler(preemptive=True),
            preemption=True,
            expect_mode="replay",
        ),
        "dynamic_priority": _bench_path(
            "dynamic_priority",
            dense,
            DynamicPriorityScheduler,
            expect_mode="replay",
        ),
        "preemptive_edf": _bench_path(
            "preemptive_edf",
            deadlined,
            lambda: MaxEDFScheduler(preemptive=True),
            preemption=True,
            expect_mode="replay",
            kernel_rounds=3,
        ),
    }
    _merge_report({"paths": rows})

    print()
    for name, row in rows.items():
        kills = f", {row['tasks_killed']} kills" if "tasks_killed" in row else ""
        versus = (
            f"object {row['object_events_per_second']:,.0f} events/s, "
            f"{row['speedup']:.1f}x"
            if "speedup" in row
            else "no ratio floor"
        )
        print(
            f"{name:16s}: {row['events_per_second']:>10,.0f} events/s over "
            f"{row['events_processed']} events ({versus}{kills})"
        )
    # The preemptive rows must actually preempt, or they measure nothing.
    assert rows["preemptive_fair"]["tasks_killed"] > 0
    assert rows["preemptive_edf"]["tasks_killed"] > 0
    for name, row in rows.items():
        if name in PATH_FLOORS:
            assert row["speedup"] > PATH_FLOORS[name], (name, row["speedup"])
