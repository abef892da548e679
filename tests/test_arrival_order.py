"""Same-instant event order in the heap loop.

Task arrivals do not go through the event heap: a dispatch appends them
to a map or a reduce FIFO, and the loop drains those while no heap event
is due at the current instant (docs/engine-internals.md).  Each case
below is built so that a heap event lands at the very instant arrivals
are queued, where draining the FIFOs too early changes the stream:

* a zero-time map, whose departure must pop ahead of the arrivals
  queued before it;
* a map departure that ends the map stage at the instant a reduce
  arrival is queued, so the reduce starts as a first-wave task with the
  map stage already over, not as a filler;
* a preemptive job arrival (priority 4) at the instant a departure
  queued arrivals, so the kills see only the attempts that have
  started;
* a ``depends_on`` child released at its parent's departure instant.

``PINNED`` holds each case's event digest and ``events_processed`` as
the loop produced them when task arrivals were heap events.  Both
engines must reproduce them, with the full sanitizer silent.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np
import pytest

from repro.core import ClusterConfig, ColumnarEngine, JobProfile, SimulatorEngine, TraceJob
from repro.core.events import EventType
from repro.sanitize import Sanitizer
from repro.sanitize.digest import DigestRecorder, EventDigest
from repro.schedulers import FIFOScheduler, FairScheduler, MinEDFScheduler

ENGINES = [SimulatorEngine, ColumnarEngine]


def _profile(
    name: str,
    maps: Sequence[float],
    reduces: int = 0,
    first_shuffle: float = 1.0,
    typical_shuffle: float = 0.5,
    reduce_s: float = 1.0,
    num_maps: Optional[int] = None,
) -> JobProfile:
    """A profile whose map durations cycle through ``maps``."""
    def full(value: float) -> np.ndarray:
        return np.full(reduces, value) if reduces else np.empty(0)

    return JobProfile(
        name=name,
        num_maps=len(maps) if num_maps is None else num_maps,
        num_reduces=reduces,
        map_durations=np.asarray(maps, dtype=float),
        first_shuffle_durations=full(first_shuffle),
        typical_shuffle_durations=full(typical_shuffle),
        reduce_durations=full(reduce_s),
    )


def _zero_time_map() -> list[TraceJob]:
    # Three map slots at t=0 go to maps of 0, 2 and 0 s, with reduces
    # queued behind them (slow-start 0): each zero-time departure pops
    # ahead of the arrivals still queued and re-dispatches its slot.
    return [
        TraceJob(_profile("a", [0.0, 2.0, 0.0], reduces=2, num_maps=5), 0.0),
        TraceJob(_profile("b", [1.0, 0.0], reduces=1, num_maps=3), 0.0),
    ]


def _stage_end_before_reduce() -> list[TraceJob]:
    # At t=1 the first map departs and opens the slow-start gate: the
    # last map (0 s) and the only reduce are dispatched together.  The
    # map's departure ends the map stage before the reduce arrival pops.
    return [TraceJob(_profile("a", [1.0, 0.0], reduces=1), 0.0)]


def _preemptive_arrival() -> list[TraceJob]:
    # At t=2 the first map of "a" departs and "a" takes the slot again;
    # "b" arrives at the same instant and claims a slot by a kill.  The
    # new attempt of "a" has not started when the kill is decided, so
    # the youngest started attempt (from t=0) is the one killed.
    return [
        TraceJob(_profile("a", [2.0, 5.0], reduces=1, num_maps=4), 0.0, deadline=200.0),
        TraceJob(_profile("b", [1.0], reduces=1, num_maps=4), 2.0, deadline=5.0),
        TraceJob(_profile("a", [5.0], reduces=1), 0.0, deadline=100.0),
    ]


def _dependent_arrival() -> list[TraceJob]:
    # The parent's only map departs at t=2: its job departure, its
    # child's arrival and a map arrival of "x" all fall at t=2.
    return [
        TraceJob(_profile("p", [2.0]), 0.0),
        TraceJob(_profile("x", [1.0], reduces=1, num_maps=3), 0.0),
        TraceJob(_profile("c", [1.0], reduces=1), 0.0, depends_on=0),
    ]


#: Case name -> (trace builder, scheduler factory, cluster, slow-start,
#: preemption).
CASES: dict[str, tuple[Callable[[], list[TraceJob]], Callable[[], Any], ClusterConfig, float, bool]] = {
    "zero-time-map-FIFO": (_zero_time_map, FIFOScheduler, ClusterConfig(3, 2), 0.0, False),
    "zero-time-map-Fair": (_zero_time_map, FairScheduler, ClusterConfig(3, 2), 0.0, False),
    "stage-end-before-reduce": (
        _stage_end_before_reduce, FIFOScheduler, ClusterConfig(1, 1), 0.5, False,
    ),
    "preemptive-arrival-Fair+P": (
        _preemptive_arrival, lambda: FairScheduler(preemptive=True),
        ClusterConfig(3, 1), 0.05, True,
    ),
    "preemptive-arrival-MinEDF+P": (
        _preemptive_arrival, lambda: MinEDFScheduler(preemptive=True),
        ClusterConfig(3, 1), 0.05, True,
    ),
    "dependent-arrival": (_dependent_arrival, FIFOScheduler, ClusterConfig(1, 1), 0.05, False),
}

#: Case name -> (event digest, events_processed).
PINNED: dict[str, tuple[str, int]] = {
    "dependent-arrival": ("ab68b82959f90dd558360370068477bb", 23),
    "preemptive-arrival-Fair+P": ("2b63b8c16ca475315f4fdaa07715ad73", 35),
    "preemptive-arrival-MinEDF+P": ("2989eefd2d7b48563425ec4fb5cbb906", 35),
    "stage-end-before-reduce": ("ea384b1897239988fa6004d6845697a7", 9),
    "zero-time-map-FIFO": ("ca7309c534c6b03a11bac4cebe177598", 28),
    "zero-time-map-Fair": ("6b49ff84a178574633b5bc5c357ad5a3", 28),
}


def run_case(name: str, engine_cls: type, sanitizer: Any) -> Any:
    build, scheduler, cluster, slowstart, preemption = CASES[name]
    engine = engine_cls(
        cluster, scheduler(), min_map_percent_completed=slowstart,
        preemption=preemption, sanitizer=sanitizer,
    )
    return engine.run(build())


@pytest.mark.parametrize("engine_cls", ENGINES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_stream_is_pinned_and_sanitizer_silent(name, engine_cls):
    san = Sanitizer(fail_fast=False, digest=EventDigest())
    result = run_case(name, engine_cls, san)
    assert san.violations == []
    assert (san.digest.hexdigest(), result.events_processed) == PINNED[name]


@pytest.mark.parametrize("engine_cls", ENGINES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_bulk_digest_is_pinned(name, engine_cls):
    recorder = DigestRecorder()
    result = run_case(name, engine_cls, recorder)
    assert (recorder.hexdigest(), result.events_processed) == PINNED[name]


def _events(name: str) -> list[tuple[float, int, int, int]]:
    recorder = DigestRecorder(EventDigest(keep_events=True))
    run_case(name, SimulatorEngine, recorder)
    return recorder.digest.events


MAP_DEP = int(EventType.MAP_TASK_DEPARTURE)
ALL_MAPS = int(EventType.ALL_MAPS_FINISHED)
JOB_DEP = int(EventType.JOB_DEPARTURE)
JOB_ARR = int(EventType.JOB_ARRIVAL)
MAP_ARR = int(EventType.MAP_TASK_ARRIVAL)
RED_ARR = int(EventType.REDUCE_TASK_ARRIVAL)


class TestCasesReachTheirInstant:
    """Each case really puts a heap event among queued arrivals."""

    def test_zero_time_departure_pops_between_arrivals(self):
        events = _events("zero-time-map-FIFO")
        at0 = [e[1] for e in events if e[0] == 0.0]
        first_dep = at0.index(MAP_DEP)
        assert MAP_ARR in at0[first_dep + 1:]
        assert RED_ARR in at0[first_dep + 1:]

    def test_reduce_starts_after_the_stage_ends(self):
        events = _events("stage-end-before-reduce")
        at1 = [e[1] for e in events if e[0] == 1.0]
        assert at1 == [MAP_DEP, MAP_ARR, MAP_DEP, ALL_MAPS, RED_ARR]
        result = run_case("stage-end-before-reduce", SimulatorEngine, None)
        (record,) = [r for r in result.task_records if r.kind == "reduce"]
        assert record.first_wave and record.start == 1.0
        assert record.shuffle_end == 2.0  # the first-wave shuffle, from t=1

    @pytest.mark.parametrize("name", ["preemptive-arrival-Fair+P", "preemptive-arrival-MinEDF+P"])
    def test_kill_is_decided_before_the_new_attempt_starts(self, name):
        events = _events(name)
        at2 = [e[1] for e in events if e[0] == 2.0]
        arrival = at2.index(JOB_ARR)
        assert MAP_ARR in at2[arrival + 1:]
        assert MAP_DEP in at2[:arrival]
        result = run_case(name, SimulatorEngine, None)
        killed = [r for r in result.task_records if r.killed]
        assert killed and all(r.start < 2.0 for r in killed)

    def test_child_arrives_at_the_parent_departure(self):
        events = _events("dependent-arrival")
        at2 = [(e[1], e[2]) for e in events if e[0] == 2.0]
        assert at2.index((JOB_DEP, 0)) < at2.index((JOB_ARR, 2)) < at2.index((MAP_ARR, 1))
