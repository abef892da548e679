"""Figures 1 and 2: WordCount task progress under different allocations.

The paper's motivating example (Section II): WordCount with 200 map and
256 reduce tasks, run once with 128 map/128 reduce slots (Figure 1 — two
map waves, two reduce waves) and once with 64/64 (Figure 2 — four waves
each).  The plots show, over time, which tasks are in the map, shuffle
and reduce phases; the first reduce wave's shuffle visibly overlaps the
map stage and ends only after the last map.

``run_progress`` replays that exact scenario in SimMR and returns the
per-task phase intervals plus a sampled time series ("tasks in phase"
curves, the figures' content) and the wave counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.cluster import ClusterConfig
from ..core.kernel import ColumnarEngine
from ..core.job import TraceJob
from ..schedulers.fifo import FIFOScheduler
from ..workloads.apps import app_spec
from .common import format_table

__all__ = ["ProgressResult", "run_progress"]


def _count_waves(intervals: list[tuple[float, float]]) -> int:
    """Number of scheduling waves: tasks divided by peak slot concurrency.

    With N tasks and at most S running at once, the stage "proceeds in
    multiple rounds of slot assignment" (paper Section II) — ceil(N / S)
    waves (e.g. 200 maps on 128 slots -> 2 waves; on 64 slots -> 4).
    """
    if not intervals:
        return 0
    events = sorted(
        [(start, 1) for start, _ in intervals] + [(end, -1) for _, end in intervals],
        key=lambda e: (e[0], e[1]),
    )
    peak = running = 0
    for _, delta in events:
        running += delta
        peak = max(peak, running)
    return -(-len(intervals) // peak)


def _in_phase(times: np.ndarray, intervals: list[tuple[float, float]]) -> np.ndarray:
    """Count of intervals covering each sample time."""
    counts = np.zeros(times.size, dtype=np.int64)
    for start, end in intervals:
        counts += (times >= start) & (times < end)
    return counts


@dataclass
class ProgressResult:
    """Task-progress data of one WordCount replay (one paper figure)."""

    map_slots: int
    reduce_slots: int
    makespan: float
    map_intervals: list[tuple[float, float]]
    shuffle_intervals: list[tuple[float, float]]
    reduce_intervals: list[tuple[float, float]]
    map_waves: int
    reduce_waves: int
    map_stage_end: float

    def series(self, points: int = 60) -> list[dict]:
        """Sampled "tasks in phase" curves — the figures' plotted data."""
        times = np.linspace(0.0, self.makespan, points)
        maps = _in_phase(times, self.map_intervals)
        shuffles = _in_phase(times, self.shuffle_intervals)
        reduces = _in_phase(times, self.reduce_intervals)
        return [
            {
                "time": float(t),
                "map_tasks": int(m),
                "shuffle_tasks": int(s),
                "reduce_tasks": int(r),
            }
            for t, m, s, r in zip(times, maps, shuffles, reduces)
        ]

    def rows(self) -> list[dict]:
        return self.series()

    def __str__(self) -> str:
        head = (
            f"WordCount with {self.map_slots} map and {self.reduce_slots} reduce slots: "
            f"{self.map_waves} map waves, {self.reduce_waves} reduce waves, "
            f"makespan {self.makespan:.1f}s (map stage ends {self.map_stage_end:.1f}s)"
        )
        return head + "\n" + format_table(self.series(points=15))


def run_progress(
    map_slots: int = 128,
    reduce_slots: int = 128,
    *,
    num_maps: int = 200,
    num_reduces: int = 256,
    seed: int = 0,
    min_map_percent_completed: float = 0.05,
) -> ProgressResult:
    """Replay the Section II WordCount example on the given allocation.

    ``map_slots=128, reduce_slots=128`` reproduces Figure 1;
    ``64, 64`` reproduces Figure 2.
    """
    rng = np.random.default_rng(seed)
    spec = app_spec("WordCount")
    # The Section II example job: 200 maps, 256 reduces.
    profile = spec.make_profile(rng)
    profile = type(profile)(
        name="WordCount",
        num_maps=num_maps,
        num_reduces=num_reduces,
        map_durations=spec.map_durations.sample(rng, num_maps),
        first_shuffle_durations=spec.first_shuffle.sample(rng, num_reduces),
        typical_shuffle_durations=spec.typical_shuffle.sample(rng, num_reduces),
        reduce_durations=spec.reduce_durations.sample(rng, num_reduces),
    )
    engine = ColumnarEngine(
        ClusterConfig(map_slots, reduce_slots),
        FIFOScheduler(),
        min_map_percent_completed=min_map_percent_completed,
    )
    result = engine.run([TraceJob(profile, 0.0)])

    map_intervals = [(r.start, r.end) for r in result.task_records if r.kind == "map"]
    shuffle_intervals = []
    reduce_intervals = []
    for r in result.task_records:
        if r.kind != "reduce":
            continue
        assert r.shuffle_end is not None
        shuffle_intervals.append((r.start, r.shuffle_end))
        reduce_intervals.append((r.shuffle_end, r.end))

    job = result.jobs[0]
    assert job.map_stage_end is not None
    return ProgressResult(
        map_slots=map_slots,
        reduce_slots=reduce_slots,
        makespan=result.makespan,
        map_intervals=map_intervals,
        shuffle_intervals=shuffle_intervals,
        reduce_intervals=reduce_intervals,
        map_waves=_count_waves(map_intervals),
        reduce_waves=_count_waves(
            [(s, e2) for (s, _), (_, e2) in zip(shuffle_intervals, reduce_intervals)]
        ),
        map_stage_end=job.map_stage_end,
    )
