"""Tests for kill-based preemption (the paper's Figure 7 'bump' fix).

Paper Section V-B observes that without preemption "the slot is not
available for allocation to the earlier deadline job which just arrived".
The engine's ``preemption=True`` mode plus the preemptive EDF variants
remove that limitation using Hadoop's kill semantics: victims lose their
progress and rerun.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ClusterConfig, SimulatorEngine, TraceJob, simulate
from repro.schedulers import FIFOScheduler, MaxEDFScheduler, MinEDFScheduler

from conftest import make_constant_profile, make_random_profile, run_engine


@pytest.fixture
def run(engine_kind):
    """Preemptive run on the parametrized engine path: since the kernel's
    replay mode covers live preemption, every behavioural pin
    here holds on both the object loop and the columnar kernel."""

    def _run(trace, scheduler, cluster=ClusterConfig(4, 4), **kw):
        return run_engine(
            engine_kind, trace, scheduler, cluster, preemption=True,
            sanitize=False, **kw,
        )

    return _run


@pytest.fixture
def hog_and_urgent():
    """A slot-hogging long job plus an urgent small one arriving later."""
    hog = make_constant_profile(name="hog", num_maps=8, num_reduces=0, map_s=100.0)
    urgent = make_constant_profile(name="urgent", num_maps=4, num_reduces=0, map_s=10.0)
    return [
        TraceJob(hog, 0.0, deadline=500.0),
        TraceJob(urgent, 5.0, deadline=30.0),
    ]


class TestPreemptiveMaxEDF:
    def test_urgent_job_meets_deadline(self, run, hog_and_urgent):
        result = run(hog_and_urgent, MaxEDFScheduler(preemptive=True))
        assert result.jobs[1].completion_time <= 30.0

    def test_without_preemption_urgent_misses(self, hog_and_urgent):
        result = simulate(hog_and_urgent, MaxEDFScheduler(), ClusterConfig(4, 4))
        assert result.jobs[1].completion_time > 30.0

    def test_killed_work_reruns(self, run, hog_and_urgent):
        result = run(hog_and_urgent, MaxEDFScheduler(preemptive=True))
        killed = [r for r in result.task_records if r.killed]
        assert len(killed) == 4  # the urgent job needed 4 slots
        # The hog still completes all its maps.
        assert result.jobs[0].completion_time is not None
        hog_completed = [
            r for r in result.task_records
            if r.job_id == 0 and r.kind == "map" and not r.killed
        ]
        assert len(hog_completed) == 8

    def test_kill_costs_lost_work(self, run, hog_and_urgent):
        """The hog finishes later than without preemption (restarts)."""
        preempted = run(hog_and_urgent, MaxEDFScheduler(preemptive=True))
        clean = simulate(hog_and_urgent, MaxEDFScheduler(), ClusterConfig(4, 4))
        assert preempted.jobs[0].completion_time > clean.jobs[0].completion_time

    def test_earlier_deadline_jobs_never_preempted(self, run):
        """A late-deadline arrival must not disturb earlier-deadline work."""
        early = make_constant_profile(name="early", num_maps=4, num_reduces=0, map_s=50.0)
        late = make_constant_profile(name="late", num_maps=4, num_reduces=0, map_s=10.0)
        trace = [
            TraceJob(early, 0.0, deadline=60.0),
            TraceJob(late, 5.0, deadline=10000.0),
        ]
        result = run(trace, MaxEDFScheduler(preemptive=True))
        assert not any(r.killed for r in result.task_records)
        assert result.jobs[0].completion_time <= 60.0

    def test_name_marks_variant(self):
        assert MaxEDFScheduler(preemptive=True).name == "MaxEDF+P"
        assert MinEDFScheduler(preemptive=True).name == "MinEDF+P"


class TestPreemptiveMinEDF:
    def test_takes_only_its_demand(self, run):
        """MinEDF+P frees only the slots its model demand requires.

        The hog's deadline makes it want 7 of the 8 map slots; the tight
        small job demands 3 but finds only 1 free — exactly 2 kills.
        """
        hog = make_constant_profile(name="hog", num_maps=16, num_reduces=0, map_s=100.0)
        small = make_constant_profile(name="small", num_maps=8, num_reduces=0, map_s=10.0)
        trace = [
            TraceJob(hog, 0.0, deadline=280.0),
            TraceJob(small, 5.0, deadline=45.0),
        ]
        result = run(trace, MinEDFScheduler(preemptive=True), ClusterConfig(8, 8))
        killed = sum(1 for r in result.task_records if r.killed)
        assert killed == 2
        assert result.jobs[1].completion_time <= 45.0

    def test_helps_urgent_arrivals_into_busy_cluster(self, run):
        """The paper's bump scenario: tight-deadline jobs arriving while
        loose background work holds the slots.  Preemption must reduce
        the *urgent* jobs' deadline misses; the background jobs pay with
        rerun work (that trade-off is the point of the mechanism)."""
        cluster = ClusterConfig(8, 8)
        trace = []
        # Background stream: each job's deadline makes it demand ~5 of
        # the 8 slots, so together they saturate the cluster with
        # long-running (90s) map tasks.
        for i in range(4):
            bg = make_constant_profile(name=f"bg{i}", num_maps=24, num_reduces=0, map_s=90.0)
            t = i * 15.0
            trace.append(TraceJob(bg, t, deadline=t + 500.0))
        # Tight small arrivals mid-burst: without preemption they wait up
        # to 90s for a background map to free a slot.
        urgent_ids = []
        for i in range(3):
            urgent = make_constant_profile(
                name=f"urgent{i}", num_maps=6, num_reduces=0, map_s=8.0
            )
            submit = 70.0 + i * 30.0
            trace.append(TraceJob(urgent, submit, deadline=submit + 40.0))
            urgent_ids.append(len(trace) - 1)

        plain = simulate(trace, MinEDFScheduler(), cluster, record_tasks=False)
        preempt = run(
            trace, MinEDFScheduler(preemptive=True), cluster, record_tasks=False
        )
        urgent_plain = sum(plain.jobs[i].relative_deadline_exceeded() for i in urgent_ids)
        urgent_preempt = sum(
            preempt.jobs[i].relative_deadline_exceeded() for i in urgent_ids
        )
        assert urgent_plain > 0  # the bump exists without preemption
        assert urgent_preempt < urgent_plain


class TestPreemptionEngineMechanics:
    def test_filler_reduce_can_be_killed(self, run):
        """Killing a first-wave filler must cancel its rewrite."""
        victim = make_constant_profile(
            name="victim", num_maps=8, num_reduces=4, map_s=50.0,
            first_shuffle_s=5.0, reduce_s=3.0,
        )
        urgent = make_constant_profile(
            name="urgent", num_maps=0, num_reduces=4,
            first_shuffle_s=2.0, reduce_s=1.0,
        )
        trace = [
            TraceJob(victim, 0.0, deadline=10000.0),
            TraceJob(urgent, 20.0, deadline=30.0),
        ]
        result = run(
            trace, MaxEDFScheduler(preemptive=True), ClusterConfig(4, 4),
            min_map_percent_completed=0.0,
        )
        assert result.jobs[1].completion_time <= 30.0
        # Victim completes all reduces despite the filler kills.
        assert result.jobs[0].completion_time is not None
        done = [
            r for r in result.task_records
            if r.job_id == 0 and r.kind == "reduce" and not r.killed
        ]
        assert len(done) == 4

    def test_stale_departures_ignored(self, run, hog_and_urgent):
        """Event accounting stays consistent: killed attempts' departure
        events fire but change nothing."""
        result = run(hog_and_urgent, MaxEDFScheduler(preemptive=True))
        # Every job's task counts balance out.
        for job in result.jobs:
            completed = [
                r for r in result.task_records
                if r.job_id == job.job_id and not r.killed
            ]
            assert len(completed) == job.num_maps + job.num_reduces

    def test_preemption_off_identical_to_before(self, rng):
        """preemption=False must not change any schedule."""
        profiles = [make_random_profile(rng, f"j{i}", 12, 6) for i in range(4)]
        trace = [TraceJob(p, float(i * 7), deadline=2000.0) for i, p in enumerate(profiles)]
        plain = simulate(trace, MinEDFScheduler(), ClusterConfig(8, 8))
        off = SimulatorEngine(
            ClusterConfig(8, 8), MinEDFScheduler(), preemption=False
        ).run(trace)
        assert plain.completion_times() == off.completion_times()

    def test_preemptive_scheduler_needs_engine_flag(self, hog_and_urgent):
        """Without engine preemption, the hook is never consulted: the
        preemptive scheduler degrades to its plain variant."""
        result = simulate(
            hog_and_urgent, MaxEDFScheduler(preemptive=True), ClusterConfig(4, 4)
        )
        assert not any(r.killed for r in result.task_records)

    def test_fifo_unaffected_by_preemption_mode(self, run, rng):
        profiles = [make_random_profile(rng, f"j{i}", 10, 5) for i in range(3)]
        trace = [TraceJob(p, float(i)) for i, p in enumerate(profiles)]
        plain = simulate(trace, FIFOScheduler(), ClusterConfig(4, 4))
        with_flag = run(trace, FIFOScheduler())
        assert plain.completion_times() == with_flag.completion_times()
