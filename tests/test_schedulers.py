"""Tests for the scheduling policies (FIFO, EDF family, Fair, Capacity)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import ClusterConfig, Job, TraceJob, simulate
from repro.schedulers import (
    CapacityScheduler,
    CappedFIFOScheduler,
    DynamicPriorityScheduler,
    FairScheduler,
    FIFOScheduler,
    MaxEDFScheduler,
    MinEDFScheduler,
    UserAccount,
    make_scheduler,
)

from conftest import make_constant_profile


def make_jobs(*specs) -> list[Job]:
    """Jobs from (submit_time, deadline) pairs."""
    profile = make_constant_profile()
    return [
        Job(i, TraceJob(profile, submit, deadline)) for i, (submit, deadline) in enumerate(specs)
    ]


class TestFIFO:
    def test_picks_earliest_submission(self):
        jobs = make_jobs((5.0, None), (1.0, None), (3.0, None))
        sched = FIFOScheduler()
        assert sched.choose_next_map_task(jobs).job_id == 1
        assert sched.choose_next_reduce_task(jobs).job_id == 1

    def test_tie_breaks_by_job_id(self):
        jobs = make_jobs((2.0, None), (2.0, None))
        assert FIFOScheduler().choose_next_map_task(jobs).job_id == 0

    def test_empty_queue(self):
        sched = FIFOScheduler()
        assert sched.choose_next_map_task([]) is None
        assert sched.choose_next_reduce_task([]) is None

    def test_priority_key_matches_choice(self):
        jobs = make_jobs((5.0, None), (1.0, None))
        sched = FIFOScheduler()
        chosen = sched.choose_next_map_task(jobs)
        assert min(jobs, key=sched.priority_key) is chosen


class TestMaxEDF:
    def test_picks_earliest_deadline(self):
        jobs = make_jobs((0.0, 100.0), (1.0, 50.0), (2.0, 75.0))
        assert MaxEDFScheduler().choose_next_map_task(jobs).job_id == 1

    def test_no_deadline_sorts_last(self):
        jobs = make_jobs((0.0, None), (5.0, 100.0))
        assert MaxEDFScheduler().choose_next_map_task(jobs).job_id == 1

    def test_deadline_tie_breaks_by_submission(self):
        jobs = make_jobs((3.0, 100.0), (1.0, 100.0))
        assert MaxEDFScheduler().choose_next_map_task(jobs).job_id == 1

    def test_no_slot_caps_assigned(self, cluster64):
        job = make_jobs((0.0, 100.0))[0]
        MaxEDFScheduler().on_job_arrival(job, 0.0, cluster64)
        assert job.wanted_map_slots is None
        assert job.wanted_reduce_slots is None


class TestMinEDF:
    def test_assigns_slot_demands_on_arrival(self, cluster64):
        profile = make_constant_profile(num_maps=64, num_reduces=32)
        job = Job(0, TraceJob(profile, 0.0, deadline=1000.0))
        MinEDFScheduler().on_job_arrival(job, 0.0, cluster64)
        assert job.wanted_map_slots is not None and 1 <= job.wanted_map_slots <= 64
        assert job.wanted_reduce_slots is not None and 1 <= job.wanted_reduce_slots <= 32

    def test_tight_deadline_wants_more_slots(self, cluster64):
        profile = make_constant_profile(num_maps=64, num_reduces=32)
        tight = Job(0, TraceJob(profile, 0.0, deadline=100.0))
        loose = Job(1, TraceJob(profile, 0.0, deadline=2000.0))
        sched = MinEDFScheduler()
        sched.on_job_arrival(tight, 0.0, cluster64)
        sched.on_job_arrival(loose, 0.0, cluster64)
        assert tight.wanted_map_slots >= loose.wanted_map_slots
        assert tight.wanted_reduce_slots >= loose.wanted_reduce_slots

    def test_no_deadline_means_uncapped(self, cluster64):
        job = make_jobs((0.0, None))[0]
        MinEDFScheduler().on_job_arrival(job, 0.0, cluster64)
        assert job.wanted_map_slots is None

    def test_already_late_job_uncapped(self, cluster64):
        job = make_jobs((0.0, 10.0))[0]
        MinEDFScheduler().on_job_arrival(job, 50.0, cluster64)
        assert job.wanted_map_slots is None

    def test_engine_enforces_caps(self):
        """A MinEDF job with a loose deadline never exceeds its demand."""
        profile = make_constant_profile(num_maps=32, num_reduces=8, map_s=10.0)
        t_solo = simulate(
            [TraceJob(profile, 0.0)], FIFOScheduler(), ClusterConfig(32, 8)
        ).makespan
        trace = [TraceJob(profile, 0.0, deadline=t_solo * 4)]
        result = simulate(trace, MinEDFScheduler(), ClusterConfig(32, 8))
        # Loose deadline -> fewer map slots -> more waves of running maps.
        max_concurrent = 0
        events = []
        for r in result.task_records:
            if r.kind == "map":
                events += [(r.start, 1), (r.end, -1)]
        events.sort(key=lambda e: (e[0], e[1]))
        running = 0
        for _, d in events:
            running += d
            max_concurrent = max(max_concurrent, running)
        assert max_concurrent < 32
        # ... and the deadline is still met.
        assert result.jobs[0].completion_time <= trace[0].deadline

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError, match="unknown bound"):
            from repro.models.aria import model_coefficients

            model_coefficients(make_constant_profile(), bound="bogus")


class TestCappedFIFO:
    def test_caps_assigned(self, cluster64):
        job = make_jobs((0.0, None))[0]
        CappedFIFOScheduler(16, 8).on_job_arrival(job, 0.0, cluster64)
        assert job.wanted_map_slots == 16
        assert job.wanted_reduce_slots == 8

    def test_engine_respects_requested_allocation(self):
        profile = make_constant_profile(num_maps=16, num_reduces=0, map_s=10.0)
        result = simulate(
            [TraceJob(profile, 0.0)], CappedFIFOScheduler(4, 4), ClusterConfig(64, 64)
        )
        # 16 maps on 4 allowed slots -> 4 waves of 10s.
        assert result.jobs[0].completion_time == pytest.approx(40.0)

    def test_invalid_caps_rejected(self):
        with pytest.raises(ValueError):
            CappedFIFOScheduler(0, 4)

    def test_name_includes_caps(self):
        assert "16" in CappedFIFOScheduler(16, 8).name


class TestFair:
    def test_prefers_job_with_fewer_running_tasks(self):
        jobs = make_jobs((0.0, None), (1.0, None))
        jobs[0].maps_dispatched = 5  # 5 running maps
        sched = FairScheduler(pool_of=lambda j: str(j.job_id))
        assert sched.choose_next_map_task(jobs).job_id == 1

    def test_weighted_pools(self):
        jobs = make_jobs((0.0, None), (1.0, None))
        jobs[0].maps_dispatched = 4
        jobs[1].maps_dispatched = 1
        # Pool "0" has weight 4: deficiency 4/4=1 equals pool "1" 1/1=1;
        # tie falls through to per-job running counts -> job 1.
        sched = FairScheduler(pool_of=lambda j: str(j.job_id), weights={"0": 4.0})
        assert sched.choose_next_map_task(jobs).job_id == 1

    def test_invalid_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            FairScheduler(weights={"p": 0.0})

    def test_fair_splits_cluster_between_jobs(self):
        profile = make_constant_profile(num_maps=40, num_reduces=0, map_s=10.0)
        trace = [TraceJob(profile, 0.0), TraceJob(profile, 0.0)]
        result = simulate(
            trace,
            FairScheduler(pool_of=lambda j: str(j.job_id)),
            ClusterConfig(8, 8),
        )
        # Both jobs progress concurrently: completion times are close,
        # unlike FIFO where job 0 finishes in half the total time.
        fifo = simulate(trace, FIFOScheduler(), ClusterConfig(8, 8))
        fair_gap = abs(result.jobs[0].completion_time - result.jobs[1].completion_time)
        fifo_gap = abs(fifo.jobs[0].completion_time - fifo.jobs[1].completion_time)
        assert fair_gap < fifo_gap


class TestFairPreemption:
    """HFS-style preemption: kills restore starved pools to their share."""

    def test_name_marks_variant(self):
        assert FairScheduler(preemptive=True).name == "Fair+P"
        assert FairScheduler().name == "Fair"

    def test_plain_fair_never_requests_kills(self):
        jobs = make_jobs((0.0, None), (1.0, None))
        jobs[0].maps_dispatched = 8
        sched = FairScheduler(pool_of=lambda j: str(j.job_id))
        assert (
            sched.preemption_requests(jobs[1], [jobs[0]], ClusterConfig(8, 8), 0, 8)
            == []
        )

    def test_restores_arrivals_pool_to_fair_share(self):
        """A hog holding all 8 map slots yields the arrival's half share."""
        jobs = make_jobs((0.0, None), (1.0, None))
        jobs[0].maps_dispatched = 8
        sched = FairScheduler(pool_of=lambda j: str(j.job_id), preemptive=True)
        reqs = sched.preemption_requests(jobs[1], [jobs[0]], ClusterConfig(8, 8), 0, 8)
        assert reqs == [(jobs[0], "map", 4)]

    def test_free_slots_count_against_the_deficit(self):
        jobs = make_jobs((0.0, None), (1.0, None))
        jobs[0].maps_dispatched = 4
        sched = FairScheduler(pool_of=lambda j: str(j.job_id), preemptive=True)
        assert (
            sched.preemption_requests(jobs[1], [jobs[0]], ClusterConfig(8, 8), 4, 8)
            == []
        )

    def test_never_drives_victim_pool_below_its_share(self):
        """Three equal pools on 8 slots: each is entitled to 2; the kills
        stop once the victim pool is down to its own entitlement."""
        jobs = make_jobs((0.0, None), (1.0, None), (2.0, None))
        jobs[0].maps_dispatched = 4
        jobs[1].maps_dispatched = 4
        sched = FairScheduler(pool_of=lambda j: str(j.job_id), preemptive=True)
        reqs = sched.preemption_requests(
            jobs[2], [jobs[0], jobs[1]], ClusterConfig(8, 8), 0, 8
        )
        # Later-submitted victim yields first; both stay at >= their share.
        assert reqs == [(jobs[1], "map", 2)]

    def test_weights_shift_entitlements(self):
        jobs = make_jobs((0.0, None), (1.0, None))
        jobs[0].maps_dispatched = 8
        sched = FairScheduler(
            pool_of=lambda j: str(j.job_id), weights={"1": 3.0}, preemptive=True
        )
        reqs = sched.preemption_requests(jobs[1], [jobs[0]], ClusterConfig(8, 8), 0, 8)
        assert reqs == [(jobs[0], "map", 6)]  # floor(8 * 3/4)

    def test_end_to_end_kills_restore_share(self):
        """Engine-level: the starved pool reaches its share immediately,
        paying the hog with rerun work (Hadoop kill semantics)."""
        hog = make_constant_profile(name="hog", num_maps=40, num_reduces=0, map_s=10.0)
        small = make_constant_profile(name="small", num_maps=8, num_reduces=0, map_s=10.0)
        trace = [TraceJob(hog, 0.0), TraceJob(small, 5.0)]
        result = simulate(
            trace,
            FairScheduler(preemptive=True),
            ClusterConfig(8, 8),
            preemption=True,
        )
        killed = [r for r in result.task_records if r.killed]
        assert len(killed) == 4  # half the cluster, the arrival's share
        assert all(r.job_id == 0 for r in killed)
        # Two 4-wide waves from t=5 on its half share.
        assert result.jobs[1].completion_time == 25.0
        # Without the flag the hook is a no-op and the arrival waits.
        plain = simulate(
            trace, FairScheduler(), ClusterConfig(8, 8), preemption=True
        )
        assert not any(r.killed for r in plain.task_records)
        assert plain.jobs[1].completion_time > 25.0


class TestCapacity:
    def test_validates_configuration(self):
        with pytest.raises(ValueError):
            CapacityScheduler({})
        with pytest.raises(ValueError):
            CapacityScheduler({"q": -1.0})
        with pytest.raises(ValueError, match="default queue"):
            CapacityScheduler({"a": 1.0}, default_queue="missing")

    def test_under_capacity_queue_preferred(self):
        sched = CapacityScheduler(
            {"prod": 0.75, "dev": 0.25}, queue_of=lambda j: "prod" if j.job_id == 0 else "dev"
        )
        jobs = make_jobs((0.0, None), (1.0, None))
        jobs[0].maps_dispatched = 3  # prod usage ratio 3/0.75 = 4
        jobs[1].maps_dispatched = 0  # dev usage ratio 0
        assert sched.choose_next_map_task(jobs).job_id == 1

    def test_elastic_borrowing(self):
        """A queue over its share still gets slots when it's alone."""
        sched = CapacityScheduler({"prod": 0.5, "dev": 0.5}, queue_of=lambda j: "prod")
        jobs = make_jobs((0.0, None))
        jobs[0].maps_dispatched = 100
        assert sched.choose_next_map_task(jobs).job_id == 0

    def test_unknown_queue_maps_to_default(self):
        sched = CapacityScheduler({"a": 1.0}, queue_of=lambda j: "nonexistent")
        jobs = make_jobs((0.0, None))
        assert sched.choose_next_map_task(jobs).job_id == 0

    def test_fifo_within_queue(self):
        sched = CapacityScheduler({"a": 1.0}, queue_of=lambda j: "a")
        jobs = make_jobs((5.0, None), (1.0, None))
        assert sched.choose_next_map_task(jobs).job_id == 1


@pytest.mark.parametrize("build", [
    pytest.param(lambda: FairScheduler(weights={"Sort": math.nan}), id="fair-nan"),
    pytest.param(lambda: FairScheduler(weights={"Sort": math.inf}), id="fair-inf"),
    pytest.param(lambda: CapacityScheduler({"a": math.nan, "b": 1}), id="capacity-nan"),
    pytest.param(lambda: CapacityScheduler({"a": math.inf, "b": 1}), id="capacity-inf"),
    pytest.param(lambda: UserAccount("u", math.nan, math.nan), id="account-nan"),
    pytest.param(lambda: UserAccount("u", 1.0, math.nan), id="account-rate-nan"),
    pytest.param(lambda: UserAccount("u", math.inf, math.inf), id="account-rate-inf"),
    pytest.param(lambda: UserAccount("u", -1.0, 1.0), id="account-budget-negative"),
    pytest.param(
        lambda: DynamicPriorityScheduler({"u": (math.nan, 1.0)}), id="dp-account-nan"
    ),
    pytest.param(
        lambda: DynamicPriorityScheduler(default_account=(math.inf, math.nan)),
        id="dp-default-nan",
    ),
])
def test_share_parameters_must_be_finite(build):
    """NaN compares False with everything, so a `w <= 0` guard let it
    through, and the two engines then disagreed on the schedule."""
    with pytest.raises(ValueError):
        build()


class TestRegistry:
    @pytest.mark.parametrize("name,cls", [
        ("fifo", FIFOScheduler),
        ("FIFO", FIFOScheduler),
        ("maxedf", MaxEDFScheduler),
        ("minedf", MinEDFScheduler),
        ("fair", FairScheduler),
    ])
    def test_make_scheduler(self, name, cls):
        assert isinstance(make_scheduler(name), cls)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("lottery")


class TestRegistryKwargs:
    def test_flex_metric_passthrough(self):
        from repro.schedulers import FlexScheduler

        sched = make_scheduler("flex", metric="makespan")
        assert isinstance(sched, FlexScheduler)
        assert sched.metric == "makespan"

    def test_minedf_bound_passthrough(self):
        sched = make_scheduler("minedf", bound="upper")
        assert sched.bound == "upper"

    def test_preemptive_variants_by_kwargs(self):
        assert make_scheduler("maxedf", preemptive=True).name == "MaxEDF+P"
        assert make_scheduler("minedf", preemptive=True).name == "MinEDF+P"

    def test_dp_alias(self):
        from repro.schedulers import DynamicPriorityScheduler

        assert isinstance(make_scheduler("dp"), DynamicPriorityScheduler)
