"""Figure 6 and the throughput headline: SimMR vs Mumak simulation speed.

Paper Section IV-E: a six-month, 1148-job trace (152 hours of serial
execution) replays in SimMR in 1.5 s but takes Mumak 680 s — SimMR is
two orders of magnitude faster, because "Mumak simulates the TaskTrackers
and the heartbeats between them, which leads to greater number of
simulated events and computation".  Section I adds the headline "SimMR
can process over one million events per second".

``run_performance`` regenerates the Figure 6 series: wall-clock
simulation time of both simulators over increasing replayed-job counts,
plus SimMR's event throughput.  Absolute times are hardware- and
runtime-dependent (the original is Java); the shape to check is the
widening gap and the orders-of-magnitude ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.cluster import ClusterConfig
from ..core.kernel import ColumnarEngine
from ..core.job import TraceJob
from ..mumak.simulator import MumakSimulator
from ..schedulers.fifo import FIFOScheduler
from ..trace.arrivals import ExponentialArrivals
from ..trace.synthetic import SyntheticTraceGen
from ..workloads.apps import make_app_specs
from .common import format_table

__all__ = ["PerformancePoint", "PerformanceResult", "run_performance", "make_performance_trace"]


@dataclass(frozen=True, slots=True)
class PerformancePoint:
    """One Figure 6 x-position: both simulators on the same trace prefix."""

    num_jobs: int
    simmr_seconds: float
    mumak_seconds: float
    simmr_events: int
    mumak_events: int

    @property
    def speedup(self) -> float:
        if self.simmr_seconds <= 0:
            return float("inf")
        return self.mumak_seconds / self.simmr_seconds

    @property
    def simmr_events_per_second(self) -> float:
        if self.simmr_seconds <= 0:
            return float("inf")
        return self.simmr_events / self.simmr_seconds


@dataclass
class PerformanceResult:
    points: list[PerformancePoint]

    def rows(self) -> list[dict]:
        return [
            {
                "jobs": p.num_jobs,
                "simmr_s": p.simmr_seconds,
                "mumak_s": p.mumak_seconds,
                "speedup": p.speedup,
                "simmr_events_per_s": int(p.simmr_events_per_second),
            }
            for p in self.points
        ]

    def max_speedup(self) -> float:
        return max(p.speedup for p in self.points)

    def peak_events_per_second(self) -> float:
        return max(p.simmr_events_per_second for p in self.points)

    def __str__(self) -> str:
        return format_table(self.rows(), title="Figure 6: simulation time vs number of jobs")


def make_performance_trace(
    num_jobs: int,
    *,
    mean_interarrival: float = 200.0,
    seed: int = 0,
) -> list[TraceJob]:
    """A compact multi-month-style trace of the six-application mix.

    The paper built its performance trace by concatenating six months of
    recorded jobs "without inactivity periods"; here the mix arrives with
    a mean inter-arrival chosen to keep the emulated cluster busy without
    unbounded queueing.
    """
    gen = SyntheticTraceGen(
        list(make_app_specs().values()),
        ExponentialArrivals(mean_interarrival),
        seed=seed,
    )
    return gen.generate(num_jobs)


def run_performance(
    job_counts: Sequence[int] = (72, 144, 287, 574, 1148),
    *,
    mean_interarrival: float = 200.0,
    seed: int = 0,
    cluster: ClusterConfig = ClusterConfig(64, 64),
) -> PerformanceResult:
    """Time SimMR and Mumak replaying growing prefixes of one trace.

    SimMR runs on :class:`~repro.core.kernel.ColumnarEngine`, the engine
    ``simulate`` and the sweeps use by default (its FIFO runs take the
    kernel's pass mode); the object loop processes the same events.
    """
    if not job_counts:
        raise ValueError("at least one job count is required")
    full = make_performance_trace(max(job_counts), mean_interarrival=mean_interarrival, seed=seed)
    points = []
    for n in sorted(job_counts):
        trace = full[:n]
        engine = ColumnarEngine(cluster, FIFOScheduler(), record_tasks=False)
        simmr_result = engine.run(trace)
        mumak = MumakSimulator(num_nodes=cluster.map_slots)
        mumak_result = mumak.run(trace)
        points.append(
            PerformancePoint(
                num_jobs=n,
                simmr_seconds=simmr_result.wall_clock_seconds,
                mumak_seconds=mumak_result.wall_clock_seconds,
                simmr_events=simmr_result.events_processed,
                mumak_events=mumak_result.events_processed,
            )
        )
    return PerformanceResult(points=points)
