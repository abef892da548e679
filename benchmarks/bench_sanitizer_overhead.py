"""Sanitizer overhead: the disabled path must cost (essentially) nothing.

With ``sanitize=False`` the heap loop reaches no per-event hook; it
pays one untaken branch per event.  This benchmark checks that the off
path is stable with an A/A comparison (two measurements of the *same*
disabled configuration must agree within the asserted 2% — i.e. the
"overhead" of the disabled sanitizer is indistinguishable from
measurement noise) and reports what enabling the checks actually costs.

Every round is timed in process CPU time, so time the process spends
descheduled on a shared host does not count, and the two A/A engines
run in alternating rounds (A, B, A, B, ...), so a slow phase of the
host lands on both of them rather than on one block.

Artifacts: prints the off/on throughput table and writes
``BENCH_sanitizer.json`` at the repo root for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core import ClusterConfig, SimulatorEngine
from repro.experiments.performance import make_performance_trace
from repro.sanitize import EventDigest, Sanitizer
from repro.schedulers import FIFOScheduler

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Generous bound for an A/A run-to-run comparison with best-of-N timing.
MAX_DISABLED_OVERHEAD = 0.02


def interleaved_best(trace, configs: list[dict], rounds: int = 9) -> list[float]:
    """Best-of-N throughput for each engine configuration in ``configs``.

    The configurations take turns, one run each per round, and every run
    is timed in process CPU time.  Best-of (minimum time) rather than
    mean: scheduling jitter only ever adds time, so the minimum is the
    stablest estimator for an A/A test.
    """
    engines = [
        SimulatorEngine(ClusterConfig(64, 64), FIFOScheduler(), record_tasks=False, **kw)
        for kw in configs
    ]
    best = [float("inf")] * len(engines)
    events = 0
    for _ in range(rounds):
        for i, engine in enumerate(engines):
            start = time.process_time()
            result = engine.run(trace)
            best[i] = min(best[i], time.process_time() - start)
            events = result.events_processed
    return [events / b for b in best]


def test_sanitizer_overhead(benchmark, once):
    trace = make_performance_trace(300, mean_interarrival=100.0, seed=0)

    # Headline number, via the shared harness: the disabled path.
    once(benchmark, interleaved_best, trace, [{"sanitize": False}])

    off_a, off_b = interleaved_best(trace, [{"sanitize": False}, {"sanitize": False}])
    on, on_digest = interleaved_best(trace, [
        {"sanitize": True},
        {"sanitizer": Sanitizer(fail_fast=False, digest=EventDigest(keep_events=False))},
    ])

    disabled_overhead = abs(off_a / off_b - 1.0)
    enabled_cost = off_a / on
    report = {
        "events": SimulatorEngine(
            ClusterConfig(64, 64), FIFOScheduler(), record_tasks=False, sanitize=False
        ).run(trace).events_processed,
        "off_events_per_second": off_a,
        "off_repeat_events_per_second": off_b,
        "on_events_per_second": on,
        "on_with_digest_events_per_second": on_digest,
        "disabled_overhead": disabled_overhead,
        "enabled_slowdown_factor": enabled_cost,
    }
    (REPO_ROOT / "BENCH_sanitizer.json").write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"\nsanitizer off : {off_a:,.0f} ev/s (repeat {off_b:,.0f}, "
        f"A/A delta {disabled_overhead:.2%})"
        f"\nsanitizer on  : {on:,.0f} ev/s ({enabled_cost:.2f}x slower)"
        f"\n  + digest    : {on_digest:,.0f} ev/s"
    )

    # Disabled sanitizer: within noise of itself — no hook is reachable
    # on the off path, so any systematic gap is a bug.
    assert disabled_overhead < MAX_DISABLED_OVERHEAD
    # The off path must preserve the paper's headline throughput floor.
    assert off_a > 200_000
    # Sanity: the enabled path still completes and is not catastrophic.
    assert on > 20_000
