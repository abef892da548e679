"""Behavioural tests of the simulator engine on analytic scenarios.

Constant-duration profiles make completion times exactly predictable, so
these tests pin the engine's semantics: wave structure, the first-shuffle
filler mechanism, slow-start, and the seven-event protocol.
"""

from __future__ import annotations

import numpy as np
import pytest

import functools
import sys

from repro.core import ClusterConfig, JobState, SimulatorEngine, TraceJob
from repro.core import simulate as _simulate
from repro.schedulers import FIFOScheduler

from conftest import make_constant_profile

simulate = _simulate


@pytest.fixture(autouse=True)
def _both_engines(engine_kind, monkeypatch):
    """Run every test in this module on both execution paths."""
    monkeypatch.setattr(
        sys.modules[__name__],
        "simulate",
        functools.partial(_simulate, engine=engine_kind),
    )


def run_single(profile, map_slots, reduce_slots, **kw):
    return simulate(
        [TraceJob(profile, 0.0)],
        FIFOScheduler(),
        ClusterConfig(map_slots, reduce_slots),
        **kw,
    )


class TestSingleWaveTiming:
    def test_map_only_job_single_wave(self):
        profile = make_constant_profile(num_maps=4, num_reduces=0, map_s=10.0)
        result = run_single(profile, 4, 4)
        # All four maps run concurrently: completion at exactly 10s.
        assert result.jobs[0].completion_time == pytest.approx(10.0)
        assert result.jobs[0].map_stage_end == pytest.approx(10.0)

    def test_map_only_two_waves(self):
        profile = make_constant_profile(num_maps=8, num_reduces=0, map_s=10.0)
        result = run_single(profile, 4, 4)
        assert result.jobs[0].completion_time == pytest.approx(20.0)

    def test_full_job_single_waves(self):
        """1 map wave + first shuffle (from map end) + reduce phase."""
        profile = make_constant_profile(
            num_maps=4, num_reduces=2, map_s=10.0, first_shuffle_s=5.0, reduce_s=3.0
        )
        result = run_single(profile, 4, 2)
        # maps end at 10; first-wave reduces (fillers) complete their
        # non-overlapping shuffle at 15, reduce phase at 18.
        assert result.jobs[0].completion_time == pytest.approx(18.0)

    def test_reduce_second_wave_uses_typical_shuffle(self):
        profile = make_constant_profile(
            num_maps=2,
            num_reduces=2,
            map_s=10.0,
            first_shuffle_s=5.0,
            typical_shuffle_s=4.0,
            reduce_s=3.0,
        )
        # Only 1 reduce slot: wave 1 is a filler (5+3 after map end at 10
        # -> finishes 18); wave 2 starts at 18, typical shuffle 4 + 3 -> 25.
        result = run_single(profile, 2, 1)
        assert result.jobs[0].completion_time == pytest.approx(25.0)

    def test_zero_map_job(self):
        profile = make_constant_profile(
            num_maps=0, num_reduces=2, first_shuffle_s=5.0, reduce_s=3.0
        )
        result = run_single(profile, 4, 2)
        # Map stage trivially complete at submit; reduces run first-wave
        # shuffle immediately.
        assert result.jobs[0].completion_time == pytest.approx(8.0)

    def test_single_task_job(self):
        profile = make_constant_profile(num_maps=1, num_reduces=0, map_s=7.5)
        result = run_single(profile, 64, 64)
        assert result.jobs[0].completion_time == pytest.approx(7.5)


class TestShuffleOverlapSemantics:
    def test_first_shuffle_counted_from_map_stage_end(self):
        """A filler reduce dispatched early still ends map_end + sh1 + red."""
        profile = make_constant_profile(
            num_maps=8, num_reduces=1, map_s=10.0, first_shuffle_s=5.0, reduce_s=3.0
        )
        # 2 map waves -> map end at 20.  Reduce starts after slow-start
        # (5% of 8 maps -> first map completion) but finishes 20 + 5 + 3.
        result = run_single(profile, 4, 1)
        assert result.jobs[0].completion_time == pytest.approx(28.0)
        record = result.task_records_for(0, "reduce")[0]
        assert record.first_wave
        assert record.start < 20.0  # dispatched during the map stage
        assert record.shuffle_end == pytest.approx(25.0)

    def test_slowstart_delays_reduce_dispatch(self):
        profile = make_constant_profile(
            num_maps=4, num_reduces=1, map_s=10.0, first_shuffle_s=5.0, reduce_s=3.0
        )
        # With threshold 1.0 the reduce may only start once all maps are
        # done; it still completes at map_end + sh1 + red = 18.
        result = run_single(profile, 4, 1, min_map_percent_completed=1.0)
        record = result.task_records_for(0, "reduce")[0]
        assert record.start == pytest.approx(10.0)
        assert result.jobs[0].completion_time == pytest.approx(18.0)

    def test_zero_slowstart_dispatches_reduces_at_once(self):
        profile = make_constant_profile(
            num_maps=4, num_reduces=1, map_s=10.0, first_shuffle_s=5.0, reduce_s=3.0
        )
        result = run_single(profile, 2, 1, min_map_percent_completed=0.0)
        record = result.task_records_for(0, "reduce")[0]
        assert record.start == pytest.approx(0.0)


class TestEngineMechanics:
    def test_all_jobs_complete(self, rng):
        from conftest import make_random_profile

        trace = [
            TraceJob(make_random_profile(rng, f"j{i}", 10, 5), float(i)) for i in range(10)
        ]
        result = simulate(trace, FIFOScheduler(), ClusterConfig(8, 8))
        assert all(j.completion_time is not None for j in result.jobs)

    def test_makespan_is_last_completion(self, single_job_trace):
        result = simulate(single_job_trace, FIFOScheduler(), ClusterConfig(4, 4))
        assert result.makespan == max(j.completion_time for j in result.jobs)

    def test_event_count_accounting(self):
        """Each task contributes an arrival and a departure; each job an
        arrival, a departure and (with maps) an ALL_MAPS_FINISHED."""
        profile = make_constant_profile(num_maps=3, num_reduces=2)
        result = run_single(profile, 4, 4)
        tasks = 3 + 2
        assert result.events_processed == 2 * tasks + 3

    def test_record_tasks_false_keeps_timings(self, single_job_trace):
        with_records = simulate(single_job_trace, FIFOScheduler(), ClusterConfig(4, 4))
        without = simulate(
            single_job_trace, FIFOScheduler(), ClusterConfig(4, 4), record_tasks=False
        )
        assert without.task_records == []
        assert without.completion_times() == with_records.completion_times()

    def test_determinism(self, rng):
        from conftest import make_random_profile

        trace = [
            TraceJob(make_random_profile(rng, f"j{i}", 15, 6), float(3 * i)) for i in range(6)
        ]
        r1 = simulate(trace, FIFOScheduler(), ClusterConfig(8, 8))
        r2 = simulate(trace, FIFOScheduler(), ClusterConfig(8, 8))
        assert r1.completion_times() == r2.completion_times()
        assert r1.events_processed == r2.events_processed

    def test_engine_reusable(self, single_job_trace):
        engine = SimulatorEngine(ClusterConfig(4, 4), FIFOScheduler())
        first = engine.run(single_job_trace)
        second = engine.run(single_job_trace)
        assert first.completion_times() == second.completion_times()

    def test_invalid_slowstart_rejected(self):
        with pytest.raises(ValueError, match="min_map_percent_completed"):
            SimulatorEngine(ClusterConfig(4, 4), FIFOScheduler(), min_map_percent_completed=1.5)

    def test_empty_trace(self):
        result = simulate([], FIFOScheduler(), ClusterConfig(4, 4))
        assert result.makespan == 0.0
        assert len(result.jobs) == 0

    def test_job_states_completed(self, single_job_trace):
        departed = []

        class Recording(FIFOScheduler):
            def on_job_departure(self, job, time):
                departed.append(job)

        SimulatorEngine(ClusterConfig(4, 4), Recording()).run(single_job_trace)
        assert len(departed) == len(single_job_trace)
        assert all(j.state is JobState.COMPLETED for j in departed)

    def test_queued_jobs_wait_for_slots(self):
        """Two identical jobs on a cluster that fits one: serialized."""
        profile = make_constant_profile(num_maps=4, num_reduces=0, map_s=10.0)
        trace = [TraceJob(profile, 0.0), TraceJob(profile, 0.0)]
        result = simulate(trace, FIFOScheduler(), ClusterConfig(4, 4))
        assert result.jobs[0].completion_time == pytest.approx(10.0)
        assert result.jobs[1].completion_time == pytest.approx(20.0)

    def test_later_arrival_processed_later_under_fifo(self):
        profile = make_constant_profile(num_maps=4, num_reduces=0, map_s=10.0)
        trace = [TraceJob(profile, 5.0), TraceJob(profile, 0.0)]
        result = simulate(trace, FIFOScheduler(), ClusterConfig(4, 4))
        # Job 1 (submitted at 0) runs first despite being second in the list.
        assert result.jobs[1].completion_time == pytest.approx(10.0)
        assert result.jobs[0].completion_time == pytest.approx(20.0)


class TestSlotConservation:
    @pytest.mark.parametrize("map_slots,reduce_slots", [(2, 1), (4, 4), (16, 8)])
    def test_concurrency_never_exceeds_slots(self, rng, map_slots, reduce_slots):
        from conftest import make_random_profile

        trace = [
            TraceJob(make_random_profile(rng, f"j{i}", 12, 7), float(i)) for i in range(5)
        ]
        result = simulate(trace, FIFOScheduler(), ClusterConfig(map_slots, reduce_slots))
        for kind, limit in (("map", map_slots), ("reduce", reduce_slots)):
            intervals = [
                (r.start, r.end) for r in result.task_records if r.kind == kind
            ]
            events = sorted(
                [(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals],
                key=lambda x: (x[0], x[1]),
            )
            running = 0
            for _, delta in events:
                running += delta
                assert running <= limit


class TestStalledSimulation:
    def test_unschedulable_reduces_raise(self):
        """Reduce work on a zero-reduce-slot cluster must fail loudly,
        not silently report an unfinished job."""
        profile = make_constant_profile(num_maps=2, num_reduces=2)
        with pytest.raises(RuntimeError, match="stalled"):
            simulate([TraceJob(profile, 0.0)], FIFOScheduler(), ClusterConfig(4, 0))

    def test_map_only_jobs_fine_without_reduce_slots(self):
        profile = make_constant_profile(num_maps=2, num_reduces=0, map_s=5.0)
        result = simulate([TraceJob(profile, 0.0)], FIFOScheduler(), ClusterConfig(4, 0))
        assert result.jobs[0].completion_time == pytest.approx(5.0)
