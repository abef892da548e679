"""Preemption ablation bench: the Figure 7(a) "bump" explained.

The paper attributes the deadline-miss bump around 100 s mean
inter-arrival to the scheduler's inability to preempt running tasks.
This bench re-runs the sweep with kill-based preemption (``MinEDF+P``)
and checks that the bump region improves while sparse-arrival points
stay unchanged.

A second test times a live preemptive run (MinEDF+P) on the columnar
kernel's replay mode, holds its events/s to a committed baseline, pins
the object engine's event-stream digest, event count and kill count to
the kernel's, and writes a ``preemptive_kernel_replay`` section to
``BENCH_preemption.json``.  For a static policy both engines run the
one heap loop with the same priority heaps, so the object engine runs
once, untimed: a kernel-vs-object ratio would time the loop against
itself.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core import ClusterConfig, ColumnarEngine, SimulatorEngine, TraceJob
from repro.experiments.performance import make_performance_trace
from repro.experiments.preemption import run_preemption_ablation
from repro.sanitize.digest import DigestRecorder
from repro.schedulers import MinEDFScheduler

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_preemption.json"

RUNS = 20

#: MinEDF+P replay throughput (events/s; 10 runs on a 2-core x86-64
#: container gave a 514k median) and the share of it a fresh run must
#: reach: the rule ``scripts/perf_gate.py`` applies to its floorless
#: rows, at the gate's default tolerance.
BASELINE_EVENTS_PER_SECOND = 500_000
TOLERANCE = 0.5


def _merge_report(update: dict) -> None:
    """Read-modify-write the JSON so each test contributes its section."""
    report: dict = {}
    if REPORT_PATH.exists():
        report = json.loads(REPORT_PATH.read_text())
    report.update(update)
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")


def test_preemption_removes_the_bump(benchmark, once):
    result = once(benchmark, run_preemption_ablation, runs=RUNS)
    print()
    print(result)
    assert result.preemption_helps_under_load()
    # In the loaded region preemption should help substantially.
    loaded = [v for ia, v in result.cells.items() if ia <= 100.0]
    plain = sum(v["MinEDF"] for v in loaded)
    preempt = sum(v["MinEDF+P"] for v in loaded)
    assert preempt < 0.8 * plain
    # At very sparse arrivals there is (almost) nothing to preempt.
    sparse = result.cells[max(result.cells)]
    assert abs(sparse["MinEDF+P"] - sparse["MinEDF"]) < 1.0


def test_preemptive_kernel_replay():
    """Replay mode runs live MinEDF+P kills at its baseline throughput
    and produces the object engine's bit-identical event stream."""
    rng = np.random.default_rng(0)
    trace = []
    for tj in make_performance_trace(100, mean_interarrival=20.0, seed=0):
        slack = rng.uniform(30, 120) if rng.random() < 0.5 else rng.uniform(500, 3000)
        trace.append(
            TraceJob(tj.profile, tj.submit_time, deadline=tj.submit_time + slack)
        )
    cluster = ClusterConfig(64, 64)

    def make(engine_cls, sanitizer=None):
        return engine_cls(
            cluster,
            MinEDFScheduler(preemptive=True),
            preemption=True,
            record_tasks=True,
            sanitizer=sanitizer,
        )

    best = float("inf")
    for _ in range(3):
        engine = make(ColumnarEngine)
        start = time.perf_counter()
        kres = engine.run(trace)
        best = min(best, time.perf_counter() - start)
    kernel_eps = kres.events_processed / best
    assert engine.last_path == "kernel"
    assert engine.last_kernel_mode == "replay"

    # One untimed run per engine with the digest on: same stream, same
    # event count, same kills.
    runs = {}
    for engine_cls in (ColumnarEngine, SimulatorEngine):
        recorder = DigestRecorder()
        result = make(engine_cls, recorder).run(trace)
        kills = sum(1 for r in result.task_records if r.killed)
        runs[engine_cls.__name__] = (recorder.hexdigest(), result.events_processed, kills)
    assert runs["ColumnarEngine"] == runs["SimulatorEngine"], runs
    digest, events, kills = runs["ColumnarEngine"]
    assert events == kres.events_processed
    assert kills > 0

    _merge_report(
        {
            "preemptive_kernel_replay": {
                "scheduler": "MinEDF+P",
                "trace_jobs": len(trace),
                "events_processed": events,
                "tasks_killed": kills,
                "kernel_events_per_second": kernel_eps,
                "baseline_events_per_second": BASELINE_EVENTS_PER_SECOND,
                "tolerance": TOLERANCE,
                "event_digest": digest,
                "digest_identical": True,
            }
        }
    )
    print(
        f"\npreemptive replay: {kernel_eps:,.0f} events/s over {events} events,"
        f" {kills} kills (baseline {BASELINE_EVENTS_PER_SECOND:,}), digest"
        f" {digest[:16]}"
    )
    assert kernel_eps >= TOLERANCE * BASELINE_EVENTS_PER_SECOND, kernel_eps
