"""Tests for job templates (JobProfile) and trace entries (TraceJob)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import JobProfile, PhaseStats, TraceColumns, TraceJob
from repro.sanitize.digest import trace_digest
from repro.trace.binfmt import load_trace_bin, save_trace_bin

from conftest import make_constant_profile


class TestJobProfileValidation:
    def test_valid_profile(self, constant_profile):
        assert constant_profile.num_maps == 8
        assert constant_profile.num_reduces == 4

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_constant_profile(num_maps=-1)

    def test_empty_job_rejected(self):
        with pytest.raises(ValueError, match="no tasks"):
            JobProfile(
                name="empty",
                num_maps=0,
                num_reduces=0,
                map_durations=np.empty(0),
                first_shuffle_durations=np.empty(0),
                typical_shuffle_durations=np.empty(0),
                reduce_durations=np.empty(0),
            )

    def test_maps_without_durations_rejected(self):
        with pytest.raises(ValueError, match="no map durations"):
            JobProfile(
                name="bad",
                num_maps=3,
                num_reduces=0,
                map_durations=np.empty(0),
                first_shuffle_durations=np.empty(0),
                typical_shuffle_durations=np.empty(0),
                reduce_durations=np.empty(0),
            )

    def test_reduces_without_durations_rejected(self):
        with pytest.raises(ValueError, match="no reduce durations"):
            JobProfile(
                name="bad",
                num_maps=1,
                num_reduces=2,
                map_durations=np.ones(1),
                first_shuffle_durations=np.ones(2),
                typical_shuffle_durations=np.ones(2),
                reduce_durations=np.empty(0),
            )

    def test_reduces_without_any_shuffle_rejected(self):
        with pytest.raises(ValueError, match="no shuffle durations"):
            JobProfile(
                name="bad",
                num_maps=1,
                num_reduces=2,
                map_durations=np.ones(1),
                first_shuffle_durations=np.empty(0),
                typical_shuffle_durations=np.empty(0),
                reduce_durations=np.ones(2),
            )

    def test_negative_durations_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_constant_profile(map_s=-1.0)

    def test_nan_durations_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            JobProfile(
                name="bad",
                num_maps=1,
                num_reduces=0,
                map_durations=np.array([float("nan")]),
                first_shuffle_durations=np.empty(0),
                typical_shuffle_durations=np.empty(0),
                reduce_durations=np.empty(0),
            )

    def test_2d_durations_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            JobProfile(
                name="bad",
                num_maps=2,
                num_reduces=0,
                map_durations=np.ones((2, 2)),
                first_shuffle_durations=np.empty(0),
                typical_shuffle_durations=np.empty(0),
                reduce_durations=np.empty(0),
            )

    def test_duration_arrays_immutable(self, constant_profile):
        with pytest.raises(ValueError):
            constant_profile.map_durations[0] = 99.0


def map_only(durations) -> JobProfile:
    return JobProfile("x", 2, 0, durations, [], [], [])


class TestDurationArraysOwnTheirContent:
    """A profile's durations cannot change after construction, so its
    cached digest stays a valid cache key."""

    def test_writes_through_the_callers_array_do_not_reach_the_profile(self):
        base = np.array([1.0, 2.0, 3.0, 4.0])
        p = map_only(base[:2])
        digest = trace_digest([TraceJob(p, 0.0)])
        base[0] = 99.0
        assert p.map_durations.tolist() == [1.0, 2.0]
        assert not np.shares_memory(p.map_durations, base)
        fresh = map_only(np.array([1.0, 2.0]))
        assert trace_digest([TraceJob(fresh, 0.0)]) == digest
        assert p.durations_digest == fresh.durations_digest

    def test_callers_flags_are_left_alone(self):
        base = np.array([1.0, 2.0, 3.0, 4.0])
        view = base[:2]
        map_only(base)
        map_only(view)
        assert base.flags.writeable and view.flags.writeable
        view[0] = 5.0  # still the caller's to write

    def test_read_only_view_of_writable_memory_is_copied(self):
        base = np.array([1.0, 2.0, 3.0])
        view = base[:2]
        view.flags.writeable = False
        p = map_only(view)
        base[0] = 99.0
        assert p.map_durations.tolist() == [1.0, 2.0]

    def test_read_only_buffer_views_are_not_copied(self):
        view = np.frombuffer(np.array([1.0, 2.0]).tobytes(), dtype="<f8")
        assert map_only(view).map_durations is view

    def test_mapped_file_views_are_not_copied(self, tmp_path):
        shared = np.array([3.0, 1.0, 2.0])
        trace = [TraceJob(map_only(shared), 0.0), TraceJob(map_only(shared), 1.0)]
        save_trace_bin(trace, tmp_path / "t.simmr")
        a, b = (tj.profile.map_durations for tj in load_trace_bin(tmp_path / "t.simmr"))
        assert np.shares_memory(a, b)  # both view the one deduplicated span
        assert not a.flags.writeable

    def test_unpickled_profile_is_frozen_and_digests_afresh(self):
        import pickle

        p = map_only([1.0, 2.0])
        digest = p.durations_digest
        q = pickle.loads(pickle.dumps(p))
        assert not q.map_durations.flags.writeable
        assert "durations_digest" not in vars(q)
        assert q.durations_digest == digest and q.name == p.name

    def test_in_memory_columns_are_not_copied(self):
        shared = np.array([3.0, 1.0, 2.0])
        trace = [TraceJob(map_only(shared), 0.0), TraceJob(map_only(shared), 1.0)]
        a, b = (tj.profile.map_durations for tj in TraceColumns.from_trace(trace).jobs())
        assert np.shares_memory(a, b)


class TestDurationLookup:
    def test_cyclic_map_lookup(self):
        profile = JobProfile(
            name="cyc",
            num_maps=5,
            num_reduces=0,
            map_durations=np.array([1.0, 2.0]),
            first_shuffle_durations=np.empty(0),
            typical_shuffle_durations=np.empty(0),
            reduce_durations=np.empty(0),
        )
        assert [profile.map_duration(i) for i in range(5)] == [1.0, 2.0, 1.0, 2.0, 1.0]

    def test_first_shuffle_falls_back_to_typical(self):
        profile = JobProfile(
            name="fb",
            num_maps=1,
            num_reduces=2,
            map_durations=np.ones(1),
            first_shuffle_durations=np.empty(0),
            typical_shuffle_durations=np.array([7.0]),
            reduce_durations=np.ones(2),
        )
        assert profile.first_shuffle_duration(0) == 7.0

    def test_typical_shuffle_falls_back_to_first(self):
        profile = JobProfile(
            name="fb",
            num_maps=1,
            num_reduces=2,
            map_durations=np.ones(1),
            first_shuffle_durations=np.array([5.0]),
            typical_shuffle_durations=np.empty(0),
            reduce_durations=np.ones(2),
        )
        assert profile.typical_shuffle_duration(1) == 5.0


class TestPhaseStats:
    def test_of_empty(self):
        stats = PhaseStats.of(np.empty(0))
        assert stats.avg == 0.0 and stats.max == 0.0 and stats.count == 0

    def test_of_values(self):
        stats = PhaseStats.of(np.array([1.0, 2.0, 3.0]))
        assert stats.avg == pytest.approx(2.0)
        assert stats.max == 3.0
        assert stats.count == 3

    @given(st.lists(st.floats(min_value=0, max_value=1e4), min_size=1, max_size=50))
    def test_property_avg_le_max(self, values):
        stats = PhaseStats.of(np.asarray(values))
        assert stats.avg <= stats.max + 1e-9

    def test_profile_stats(self, constant_profile):
        assert constant_profile.map_stats.avg == 10.0
        assert constant_profile.first_shuffle_stats.avg == 5.0
        assert constant_profile.typical_shuffle_stats.avg == 4.0
        assert constant_profile.reduce_stats.max == 3.0

    def test_total_task_seconds(self, constant_profile):
        # 8 maps x 10 + 4 reduces x (4 typical shuffle + 3 reduce)
        assert constant_profile.total_task_seconds() == pytest.approx(8 * 10 + 4 * 7)

    def test_with_name(self, constant_profile):
        renamed = constant_profile.with_name("other")
        assert renamed.name == "other"
        assert renamed.num_maps == constant_profile.num_maps
        assert np.array_equal(renamed.map_durations, constant_profile.map_durations)


class TestTraceJob:
    def test_valid(self, constant_profile):
        tj = TraceJob(constant_profile, 5.0, deadline=100.0)
        assert tj.submit_time == 5.0
        assert tj.deadline == 100.0

    def test_no_deadline(self, constant_profile):
        assert TraceJob(constant_profile, 0.0).deadline is None

    def test_negative_submit_rejected(self, constant_profile):
        with pytest.raises(ValueError, match="submit_time"):
            TraceJob(constant_profile, -1.0)

    def test_deadline_before_submit_rejected(self, constant_profile):
        with pytest.raises(ValueError, match="precedes"):
            TraceJob(constant_profile, 10.0, deadline=5.0)

    def test_infinite_submit_rejected(self, constant_profile):
        with pytest.raises(ValueError, match="finite"):
            TraceJob(constant_profile, float("inf"))
