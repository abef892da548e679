"""The group-share decision state (``_ShareBook``) against its policies.

A seeded driver walks a small workload through what the heap loop does
to a job: arrival, dispatch, task completion, a slot cap reached, the
slow-start gate crossed, departure, and a DynamicPriority budget running
dry.  It calls the book's ``sync`` exactly where the loop does (a map
completion re-syncs the reduce side only when it crosses the gate).
After every step the book must equal a recount from job state (live
count, candidate keys and each group's least key, group sums, levels
and the least level), and every dispatch must go to the job the
policy's own ``choose_next_*`` picks from the same jobs.  At every task completion, before the sync, the book's read-only
``keeps`` must answer what a sync and a pick on a copy of the book do.
"""

from __future__ import annotations

import copy
import math
import random
from collections import Counter
from typing import Any, Callable, Optional

import numpy as np
import pytest

from repro.core import ClusterConfig, JobProfile, TraceJob
from repro.core.engine import _cycled, _ShareBook, _ShareSide
from repro.core.job import Job, JobState
from repro.schedulers import CapacityScheduler, DynamicPriorityScheduler, FairScheduler

SLOWSTART = 0.5
CLUSTER = ClusterConfig(4, 3)
#: Jobs capped at one running task of each kind.
CAPPED = {1, 4}


def _trace() -> list[TraceJob]:
    rng = np.random.default_rng(11)
    trace = []
    for i, pool in enumerate(["a", "b", "a", "c", "b", "a", "c"]):
        num_maps = int(rng.integers(2, 7))
        num_reduces = int(rng.integers(0, 4)) if i != 2 else 0
        def durations(n: int) -> np.ndarray:
            return rng.integers(1, 5, max(n, 1)).astype(float) if n else np.empty(0)
        profile = JobProfile(
            name=pool,
            num_maps=num_maps,
            num_reduces=num_reduces,
            map_durations=durations(num_maps),
            first_shuffle_durations=durations(num_reduces),
            typical_shuffle_durations=durations(num_reduces),
            reduce_durations=durations(num_reduces),
        )
        trace.append(TraceJob(profile, float(i // 2)))
    return trace


POLICIES: dict[str, Callable[[], Any]] = {
    "Fair": FairScheduler,
    "Fair(weights)": lambda: FairScheduler(weights={"a": 2.0, "c": 0.5}),
    "DP(budgets)": lambda: DynamicPriorityScheduler(
        {"a": (6.0, 2.0), "b": (4.0, 1.0)}, default_account=(3.0, 1.0)
    ),
    "Capacity": lambda: CapacityScheduler(
        {"a": 0.5, "b": 0.3, "c": 0.2}, queue_of=lambda job: job.name
    ),
    # A share of one running task or more overflows to inf.
    "Fair(overflow)": lambda: FairScheduler(weights=dict.fromkeys("abc", 1e-320)),
}


def _run(job: Job, maps: bool) -> int:
    """The job's running count as a candidate, -1 when it is none."""
    if job.state is not JobState.RUNNING:
        return -1
    if maps:
        if job.maps_dispatched >= job.num_maps:
            return -1
        run, cap = job.maps_dispatched - job.maps_completed, job.wanted_map_slots
    else:
        if job.reduces_dispatched >= job.num_reduces or job.maps_completed < job.reduce_gate:
            return -1
        run, cap = job.reduces_dispatched - job.reduces_completed, job.wanted_reduce_slots
    return -1 if cap is not None and run >= cap else run


def assert_matches_jobs(book: _ShareBook, jobs: list[Job]) -> None:
    for side in (book.maps, book.reduces):
        assert side.live == sum(map(len, side.sets))
        sets: list[set[int]] = [set() for _ in side.sets]
        sums = [0] * len(side.sums)
        for job in jobs:
            r = book.rank[job.job_id]
            run = _run(job, side.kind_map)
            assert side.run[r] == run, (job, side.kind_map)
            if run >= 0:
                g = book.group[r]
                sets[g].add(run * side.n + r if side.by_running else r)
                sums[g] += run
        assert side.sets == sets
        assert [b for b, cs in zip(side.best, sets) if cs] == [min(cs) for cs in sets if cs]
        assert side.sums == sums
        assert side.level == [
            total / w if cs and paying else math.inf
            for cs, total, w, paying in zip(sets, sums, book.weight, book.paying)
        ]
        assert side.lo == min(side.level)


class Driver:
    """One workload walked through the loop's state changes."""

    def __init__(self, factory: Callable[[], Any], seed: int) -> None:
        trace = _trace()
        self.jobs = [Job(i, tj) for i, tj in enumerate(trace)]
        self.oracle = factory()
        mdl = [_cycled(j.profile.map_durations, j.num_maps).tolist() for j in self.jobs]
        tsl = [
            _cycled(j.profile.effective_typical_shuffle_durations, j.num_reduces).tolist()
            for j in self.jobs
        ]
        rdl = [_cycled(j.profile.reduce_durations, j.num_reduces).tolist() for j in self.jobs]
        self.book = _ShareBook(factory(), self.jobs, mdl, tsl, rdl)
        self.rng = random.Random(seed)
        self.pending = list(self.jobs)
        self.queue: list[Job] = []
        self.free = {True: CLUSTER.map_slots, False: CLUSTER.reduce_slots}
        self.seen: Counter[str] = Counter()

    def side(self, maps: bool) -> _ShareSide:
        return self.book.maps if maps else self.book.reduces

    def arrive(self) -> None:
        job = self.pending.pop(0)
        job.state = JobState.RUNNING
        job.reduce_gate = SLOWSTART * job.num_maps
        if job.job_id in CAPPED:
            job.wanted_map_slots = job.wanted_reduce_slots = 1
        self.queue.append(job)
        self.book.maps.sync(job)
        self.book.reduces.sync(job)
        self.seen["arrival"] += 1

    def dispatch(self, maps: bool) -> None:
        candidates = [j for j in self.queue if _run(j, maps) >= 0]
        assert (self.side(maps).live > 0) == bool(candidates)
        if not candidates:
            return
        if not any(self.book.paying):
            self.seen["all broke"] += 1
        picked: Optional[Job] = self.book.pick_map() if maps else self.book.pick_reduce()
        chosen = (
            self.oracle.choose_next_map_task(candidates) if maps
            else self.oracle.choose_next_reduce_task(candidates)
        )
        assert picked is chosen
        self.free[maps] -= 1
        if maps:
            picked.maps_dispatched += 1
        else:
            picked.reduces_dispatched += 1
        self.side(maps).sync(picked)
        if _run(picked, maps) < 0 and (
            picked.maps_dispatched < picked.num_maps if maps
            else picked.reduces_dispatched < picked.num_reduces
        ):
            self.seen["cap reached"] += 1
        self.seen["dispatch"] += 1

    def depart(self, job: Job) -> None:
        job.state = JobState.COMPLETED
        self.queue.remove(job)
        self.seen["departure"] += 1

    def check_keeps(self, job: Job, maps: bool) -> None:
        """``keeps(job)`` against a sync and a pick on a copy of the book.

        It must not write, must agree with the pick wherever it answers
        (a candidate with a running task in a paying group whose level
        stays finite) and must say False everywhere else.
        """
        side = self.side(maps)

        def state() -> tuple:
            return copy.deepcopy((side.sets, side.best, side.sums, side.level, side.lo,
                                  side.run, side.key, side.live, self.book.paying))

        before = state()
        kept = side.keeps(job)
        assert state() == before
        shadow = copy.deepcopy(self.book)
        shadow_side = shadow.maps if maps else shadow.reduces
        shadow_side.sync(job)
        r = self.book.rank[job.job_id]
        picked = shadow_side.pick() == r
        g = self.book.group[r]
        d = (side.sums[g] - 1) / self.book.weight[g] if side.run[r] > 0 else math.inf
        if not (self.book.paying[g] and d < math.inf):
            assert not kept
            self.seen["keeps: falls back"] += 1
            return
        assert kept == picked, (job, maps)
        self.seen["keeps: kept" if kept else "keeps: lost"] += 1
        if any(x == d for h, x in enumerate(side.level) if h != g):
            self.seen["keeps: tied level"] += 1

    def complete_map(self, job: Job) -> None:
        done = job.maps_completed + 1
        job.maps_completed = done
        self.free[True] += 1
        if done >= job.num_maps and job.map_stage_end is None:
            job.map_stage_end = 0.0
            if job.num_reduces == 0:
                self.depart(job)
        else:
            self.check_keeps(job, True)
            self.book.maps.sync(job)
        if done - 1 < job.reduce_gate <= done:
            self.book.reduces.sync(job)
            self.seen["gate crossed"] += 1

    def complete_reduce(self, job: Job) -> None:
        job.reduces_completed += 1
        self.free[False] += 1
        self.check_keeps(job, False)
        if job.reduces_completed >= job.num_reduces and job.maps_completed >= job.num_maps:
            self.depart(job)
        self.book.reduces.sync(job)

    def step(self) -> bool:
        actions: list[Callable[[], None]] = []
        if self.pending:
            actions.append(self.arrive)
        for maps in (True, False):
            if self.free[maps] > 0:
                actions.append(lambda maps=maps: self.dispatch(maps))
        running_maps = [j for j in self.queue if j.maps_dispatched > j.maps_completed]
        # A reduce cannot finish before its map stage (first-wave fillers).
        running_reduces = [
            j for j in self.queue
            if j.reduces_dispatched > j.reduces_completed and j.maps_completed >= j.num_maps
        ]
        if running_maps:
            actions.append(lambda: self.complete_map(self.rng.choice(running_maps)))
        if running_reduces:
            actions.append(lambda: self.complete_reduce(self.rng.choice(running_reduces)))
        if not self.queue and not self.pending:
            return False
        self.rng.choice(actions)()
        assert_matches_jobs(self.book, self.jobs)
        return True


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_book_matches_jobs_and_policy(policy, seed):
    driver = Driver(POLICIES[policy], seed)
    steps = 0
    while driver.step():
        steps += 1
        assert steps < 2000
    assert all(j.state is JobState.COMPLETED for j in driver.jobs)
    assert {"arrival", "dispatch", "departure", "cap reached", "gate crossed"} <= set(driver.seen)
    if policy.startswith("DP"):
        assert not any(driver.book.paying)
        assert driver.seen["all broke"] > 0


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_keeps_reaches_every_outcome(policy):
    seen: Counter[str] = Counter()
    for seed in range(4):
        driver = Driver(POLICIES[policy], seed)
        while driver.step():
            pass
        seen += driver.seen
    assert {"keeps: kept", "keeps: lost", "keeps: tied level"} <= set(seen), seen
    if policy == "Fair(overflow)":
        assert seen["keeps: falls back"] > 0
