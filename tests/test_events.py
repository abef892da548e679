"""Unit tests for the event types and their tie-break priorities."""

from __future__ import annotations

from repro.core.events import EventType


class TestEventTypePriorities:
    def test_seven_types(self):
        assert len(EventType) == 7

    def test_departures_precede_arrivals(self):
        assert EventType.MAP_TASK_DEPARTURE < EventType.MAP_TASK_ARRIVAL
        assert EventType.REDUCE_TASK_DEPARTURE < EventType.REDUCE_TASK_ARRIVAL
        assert EventType.JOB_DEPARTURE < EventType.JOB_ARRIVAL

    def test_all_maps_finished_between_map_and_reduce_departures(self):
        assert EventType.MAP_TASK_DEPARTURE < EventType.ALL_MAPS_FINISHED
        assert EventType.ALL_MAPS_FINISHED < EventType.REDUCE_TASK_DEPARTURE
