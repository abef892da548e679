"""Tests of the engine's event protocol via the observed event stream.

The paper (Section III-B) defines seven event types and the filler-based
reduce scheduling; a ``DigestRecorder`` carrying a keep-events
``EventDigest`` holds the popped ``(time, type, job_id, task_index)``
stream, so the protocol itself is directly assertable.
"""

from __future__ import annotations

import pytest

from repro.core import ClusterConfig, EventType, SimulatorEngine, TraceJob
from repro.sanitize.digest import DigestRecorder, EventDigest
from repro.schedulers import FIFOScheduler

from conftest import make_constant_profile, make_random_profile


def run_logged(trace, map_slots=4, reduce_slots=4, **kw):
    """(result, popped events) of a FIFO run on the object engine."""
    recorder = DigestRecorder(EventDigest(keep_events=True))
    engine = SimulatorEngine(
        ClusterConfig(map_slots, reduce_slots), FIFOScheduler(),
        sanitizer=recorder, **kw,
    )
    return engine.run(trace), recorder.digest.events


def types_of(events):
    return [EventType(e[1]) for e in events]


class TestEventProtocol:
    def test_exact_sequence_for_minimal_job(self):
        """1 map + 1 reduce: the canonical seven-type lifecycle."""
        profile = make_constant_profile(
            num_maps=1, num_reduces=1, map_s=10.0, first_shuffle_s=5.0, reduce_s=3.0
        )
        _, events = run_logged([TraceJob(profile, 0.0)])
        assert types_of(events) == [
            EventType.JOB_ARRIVAL,
            EventType.MAP_TASK_ARRIVAL,
            EventType.MAP_TASK_DEPARTURE,
            EventType.ALL_MAPS_FINISHED,
            EventType.REDUCE_TASK_ARRIVAL,
            EventType.REDUCE_TASK_DEPARTURE,
            EventType.JOB_DEPARTURE,
        ]

    def test_event_count_matches_counter(self):
        profile = make_constant_profile(num_maps=5, num_reduces=3)
        result, events = run_logged([TraceJob(profile, 0.0)])
        assert len(events) == result.events_processed

    def test_event_times_non_decreasing(self, rng):
        trace = [TraceJob(make_random_profile(rng, f"j{i}", 8, 4), float(i)) for i in range(3)]
        _, events = run_logged(trace)
        times = [e[0] for e in events]
        assert times == sorted(times)

    def test_all_maps_finished_once_per_mapped_job(self, rng):
        trace = [TraceJob(make_random_profile(rng, f"j{i}", 6, 2), float(i)) for i in range(4)]
        _, events = run_logged(trace)
        per_job = {}
        for _time, etype, job_id, _task in events:
            if etype == EventType.ALL_MAPS_FINISHED:
                per_job[job_id] = per_job.get(job_id, 0) + 1
        assert per_job == {i: 1 for i in range(4)}

    def test_all_maps_precedes_first_wave_reduce_departures(self):
        profile = make_constant_profile(num_maps=8, num_reduces=2, map_s=10.0)
        _, events = run_logged([TraceJob(profile, 0.0)], map_slots=4, reduce_slots=2)
        kinds = types_of(events)
        all_maps_at = kinds.index(EventType.ALL_MAPS_FINISHED)
        first_red_dep = kinds.index(EventType.REDUCE_TASK_DEPARTURE)
        assert all_maps_at < first_red_dep

    def test_departure_before_arrival_at_same_instant(self):
        """At one timestamp, departures process before arrivals, so a
        freed slot is reused at that very instant."""
        profile = make_constant_profile(num_maps=2, num_reduces=0, map_s=10.0)
        _, events = run_logged([TraceJob(profile, 0.0)], map_slots=1, reduce_slots=1)
        # At t=10: first map departs, second map arrives.
        at_ten = [EventType(e[1]) for e in events if e[0] == pytest.approx(10.0)]
        assert at_ten == [EventType.MAP_TASK_DEPARTURE, EventType.MAP_TASK_ARRIVAL]

    def test_task_indices_recorded(self):
        profile = make_constant_profile(num_maps=3, num_reduces=0)
        _, events = run_logged([TraceJob(profile, 0.0)])
        indices = [e[3] for e in events if e[1] == EventType.MAP_TASK_ARRIVAL]
        assert sorted(indices) == [0, 1, 2]
        job_events = [
            e for e in events
            if e[1] in (EventType.JOB_ARRIVAL, EventType.JOB_DEPARTURE)
        ]
        assert job_events and all(e[3] == -1 for e in job_events)

    def test_recording_does_not_change_outcomes(self, rng):
        trace = [TraceJob(make_random_profile(rng, f"j{i}", 10, 5), float(i)) for i in range(4)]
        logged, _ = run_logged(trace)
        plain = SimulatorEngine(
            ClusterConfig(4, 4), FIFOScheduler(), sanitize=False
        ).run(trace)
        assert logged.completion_times() == plain.completion_times()
        assert logged.events_processed == plain.events_processed
