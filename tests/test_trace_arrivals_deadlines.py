"""Tests for arrival processes and the deadline-factor policy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ClusterConfig, JobProfile, TraceJob
from repro.trace.arrivals import (
    BatchArrivals,
    ExponentialArrivals,
    PeriodicArrivals,
    RecordedArrivals,
)
from repro.trace.deadlines import (
    DeadlineFactorPolicy,
    clear_solo_cache,
    solo_completion_time,
)

from conftest import make_constant_profile, make_random_profile


class TestArrivalProcesses:
    @pytest.mark.parametrize(
        "process",
        [
            ExponentialArrivals(10.0),
            PeriodicArrivals(5.0),
            BatchArrivals(),
            RecordedArrivals([0.0, 3.0, 9.0]),
        ],
        ids=lambda p: type(p).__name__,
    )
    def test_monotone_and_start_at_zero(self, process, rng):
        times = process.sample(20, rng)
        assert times.shape == (20,)
        assert times[0] == 0.0
        assert np.all(np.diff(times) >= 0)

    def test_exponential_mean(self):
        times = ExponentialArrivals(50.0).sample(20000, np.random.default_rng(0))
        gaps = np.diff(times)
        assert gaps.mean() == pytest.approx(50.0, rel=0.05)

    def test_exponential_zero_jobs(self, rng):
        assert ExponentialArrivals(1.0).sample(0, rng).size == 0

    def test_exponential_validation(self):
        with pytest.raises(ValueError):
            ExponentialArrivals(0.0)

    def test_periodic_spacing(self, rng):
        times = PeriodicArrivals(7.0).sample(4, rng)
        assert np.allclose(times, [0.0, 7.0, 14.0, 21.0])

    def test_batch_all_zero(self, rng):
        assert np.all(BatchArrivals().sample(5, rng) == 0.0)

    def test_recorded_normalizes_to_zero(self, rng):
        times = RecordedArrivals([100.0, 103.0, 110.0]).sample(3, rng)
        assert np.allclose(times, [0.0, 3.0, 10.0])

    def test_recorded_tiles_beyond_recording(self, rng):
        times = RecordedArrivals([0.0, 2.0]).sample(5, rng)
        assert times.size == 5
        assert np.all(np.diff(times) >= 0)

    def test_recorded_validation(self):
        with pytest.raises(ValueError):
            RecordedArrivals([])


class TestSoloCompletionTime:
    def test_matches_analytic(self, cluster64):
        profile = make_constant_profile(num_maps=64, num_reduces=64, map_s=10.0,
                                        first_shuffle_s=5.0, reduce_s=3.0)
        # single map wave 10 + first shuffle 5 + reduce 3
        assert solo_completion_time(profile, cluster64) == pytest.approx(18.0)

    def test_cache_hits_on_equal_content(self, cluster64):
        clear_solo_cache()
        p1 = make_constant_profile()
        p2 = make_constant_profile()  # distinct object, same content
        t1 = solo_completion_time(p1, cluster64)
        t2 = solo_completion_time(p2, cluster64)
        assert t1 == t2

    def test_equal_content_shares_one_entry(self, cluster64, monkeypatch):
        """The key is (shape, durations digest): equal-content profiles,
        whatever their names, share one entry, and each profile's
        digest is computed once however often it is asked for."""
        import repro.core.job as job_module
        from repro.trace.deadlines import _SOLO_CACHE

        calls = []
        real = job_module._phases_digest
        monkeypatch.setattr(
            job_module, "_phases_digest", lambda phases: calls.append(1) or real(phases)
        )
        clear_solo_cache()
        profiles = [make_constant_profile(name=name) for name in ("a", "a", "b")]
        for _ in range(3):
            for profile in profiles:
                solo_completion_time(profile, cluster64)
        assert len(_SOLO_CACHE) == 1
        assert len(calls) == len(profiles)

    def test_different_content_gets_its_own_entry(self, cluster64):
        from repro.trace.deadlines import _SOLO_CACHE

        clear_solo_cache()
        base = make_constant_profile(num_maps=8, num_reduces=4)
        longer_maps = make_constant_profile(num_maps=8, num_reduces=4, map_s=11.0)
        # Same duration arrays, one map fewer: the shape is in the key too.
        fewer_maps = JobProfile(
            name=base.name, num_maps=7, num_reduces=4,
            map_durations=base.map_durations,
            first_shuffle_durations=base.first_shuffle_durations,
            typical_shuffle_durations=base.typical_shuffle_durations,
            reduce_durations=base.reduce_durations,
        )
        times = {solo_completion_time(p, cluster64) for p in (base, longer_maps, fewer_maps)}
        assert len(_SOLO_CACHE) == 3
        assert len(times) == 2  # 7 and 8 maps both fit one wave on 64 slots

    def test_cache_distinguishes_different_profiles(self, cluster64, rng):
        """Regression: id()-keyed caching returned stale values after GC."""
        clear_solo_cache()
        times = set()
        for i in range(5):
            profile = make_random_profile(rng, name=f"p{i}", num_maps=10 + i)
            times.add(round(solo_completion_time(profile, cluster64), 6))
        assert len(times) == 5

    def test_cache_keyed_on_cluster(self):
        clear_solo_cache()
        profile = make_constant_profile(num_maps=8, num_reduces=0, map_s=10.0)
        t_small = solo_completion_time(profile, ClusterConfig(4, 4))
        t_big = solo_completion_time(profile, ClusterConfig(8, 8))
        assert t_small == pytest.approx(20.0)
        assert t_big == pytest.approx(10.0)


class TestDeadlineFactorPolicy:
    def test_deadline_within_paper_interval(self, cluster64, rng):
        """Deadlines are uniform in [T_J, df * T_J] relative to submit."""
        profile = make_constant_profile()
        t_j = solo_completion_time(profile, cluster64)
        policy = DeadlineFactorPolicy(3.0, cluster64)
        for _ in range(50):
            deadline = policy.deadline_for(profile, 100.0, rng)
            assert 100.0 + t_j <= deadline <= 100.0 + 3.0 * t_j + 1e-9

    def test_df_one_pins_deadline_to_t_j(self, cluster64, rng):
        profile = make_constant_profile()
        t_j = solo_completion_time(profile, cluster64)
        policy = DeadlineFactorPolicy(1.0, cluster64)
        assert policy.deadline_for(profile, 0.0, rng) == pytest.approx(t_j)

    def test_df_below_one_rejected(self, cluster64):
        with pytest.raises(ValueError, match=">= 1"):
            DeadlineFactorPolicy(0.9, cluster64)

    def test_assign_preserves_jobs(self, cluster64, rng):
        profile = make_constant_profile()
        jobs = [TraceJob(profile, 0.0), TraceJob(profile, 10.0)]
        policy = DeadlineFactorPolicy(2.0, cluster64)
        assigned = policy.assign(jobs, rng)
        assert len(assigned) == 2
        assert all(j.deadline is not None for j in assigned)
        assert [j.submit_time for j in assigned] == [0.0, 10.0]
