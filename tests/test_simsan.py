"""Tests for the runtime simulation sanitizer (``repro.sanitize``).

Covers the three ways simsan turns on (env var, constructor flag,
explicit instance), that clean runs on every scheduling policy stay
clean, that each rule id fires on a mutated event stream or mutated
task records of a real run, the dual-run divergence detector (including
localising the first diverging event), and the ``simmr check`` /
``replay --sanitize`` CLI surface.
"""

from __future__ import annotations

import importlib.util
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core import ClusterConfig, ColumnarEngine, JobProfile, SimulatorEngine, TraceJob
from repro.core.shuffle import ShuffleModel
from repro.sanitize import (
    DigestRecorder,
    DualRunOutcome,
    EventDigest,
    Sanitizer,
    SimsanViolation,
    compare_digests,
    dual_run,
)
from repro.sanitize.check import default_check_trace, run_check
from repro.schedulers import FIFOScheduler, MaxEDFScheduler, make_scheduler

from conftest import make_constant_profile

REPO_ROOT = Path(__file__).resolve().parent.parent

# Engine event-type ints (mirrors the engine's hot-loop constants).
MAP_DEP, ALL_MAPS, RED_DEP, JOB_DEP, JOB_ARR, MAP_ARR, RED_ARR = range(7)


def fresh_engine(**kw):
    kw.setdefault("sanitize", False)
    return SimulatorEngine(ClusterConfig(4, 4), FIFOScheduler(), **kw)


def check_ids(san):
    return [v.check_id for v in san.violations]


# --------------------------------------------------------------------- #
# opt-in mechanisms
# --------------------------------------------------------------------- #


class TestOptIn:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("SIMMR_SANITIZE", raising=False)
        assert fresh_engine(sanitize=None).sanitizer is None

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("SIMMR_SANITIZE", "1")
        engine = fresh_engine(sanitize=None)
        assert isinstance(engine.sanitizer, Sanitizer)
        assert engine.sanitizer.fail_fast

    @pytest.mark.parametrize("value", ["", "0", "false", "False"])
    def test_env_var_falsey_values(self, monkeypatch, value):
        monkeypatch.setenv("SIMMR_SANITIZE", value)
        assert fresh_engine(sanitize=None).sanitizer is None

    def test_sanitize_false_overrides_env(self, monkeypatch):
        monkeypatch.setenv("SIMMR_SANITIZE", "1")
        assert fresh_engine(sanitize=False).sanitizer is None

    def test_sanitize_true_forces_on(self, monkeypatch):
        monkeypatch.delenv("SIMMR_SANITIZE", raising=False)
        assert isinstance(fresh_engine(sanitize=True).sanitizer, Sanitizer)

    def test_explicit_sanitizer_used_verbatim(self, monkeypatch):
        monkeypatch.delenv("SIMMR_SANITIZE", raising=False)
        custom = Sanitizer(fail_fast=False)
        engine = SimulatorEngine(ClusterConfig(4, 4), FIFOScheduler(), sanitizer=custom)
        assert engine.sanitizer is custom

    def test_sanitize_false_beats_explicit_sanitizer(self):
        custom = Sanitizer(fail_fast=False)
        engine = SimulatorEngine(
            ClusterConfig(4, 4), FIFOScheduler(), sanitizer=custom, sanitize=False
        )
        assert engine.sanitizer is None


# --------------------------------------------------------------------- #
# clean runs stay clean — and identical to unsanitized runs
# --------------------------------------------------------------------- #


class TestCleanRuns:
    @pytest.mark.parametrize("name", ["fifo", "fair", "maxedf", "minedf"])
    def test_sanitized_run_has_no_violations(self, name):
        trace = default_check_trace(jobs=8, seed=3)
        san = Sanitizer(fail_fast=False)
        engine = SimulatorEngine(ClusterConfig(32, 32), make_scheduler(name), sanitizer=san)
        engine.run(trace)
        assert san.violations == []

    def test_preemptive_run_has_no_violations(self):
        trace = default_check_trace(jobs=8, seed=5)
        san = Sanitizer(fail_fast=False)
        engine = SimulatorEngine(
            ClusterConfig(16, 16),
            MaxEDFScheduler(preemptive=True),
            preemption=True,
            sanitizer=san,
        )
        engine.run(trace)
        assert san.violations == []

    def test_sanitized_run_matches_unsanitized(self):
        trace = default_check_trace(jobs=8, seed=3)
        plain = SimulatorEngine(ClusterConfig(32, 32), FIFOScheduler(), sanitize=False)
        checked = SimulatorEngine(ClusterConfig(32, 32), FIFOScheduler(), sanitize=True)
        a, b = plain.run(trace), checked.run(trace)
        assert a.makespan == b.makespan
        assert a.events_processed == b.events_processed
        assert [j.completion_time for j in a.jobs] == [j.completion_time for j in b.jobs]

    def test_rerun_resets_sanitizer_state(self):
        trace = [TraceJob(make_constant_profile(num_maps=2, num_reduces=1), 0.0)]
        san = Sanitizer(fail_fast=False, digest=EventDigest())
        engine = SimulatorEngine(ClusterConfig(4, 4), FIFOScheduler(), sanitizer=san)
        engine.run(trace)
        first = (san.digest.hexdigest(), san.digest.count)
        engine.run(trace)
        assert san.violations == []
        assert (san.digest.hexdigest(), san.digest.count) == first


# --------------------------------------------------------------------- #
# each check family fires on a mutated stream or mutated records
# --------------------------------------------------------------------- #


class Observed:
    """What a clean run hands its observer, ready to be mutated.

    The reference run: one job of 4 maps and 2 reduces on 4x4 slots::

        0 JOB_ARR 0          5-8 MAP_DEP 0..3 t=10   12-13 RED_DEP 0,1 t=18
        1-4 MAP_ARR 0..3 t=0   9 ALL_MAPS t=10       14 JOB_DEP t=18
                             10-11 RED_ARR 0,1 t=10
    """

    def __init__(self, trace=None, engine_cls=SimulatorEngine, **kw):
        if trace is None:
            trace = [TraceJob(make_constant_profile(num_maps=4, num_reduces=2), 0.0)]
        kw.setdefault("cluster", ClusterConfig(4, 4))
        kw.setdefault("scheduler", FIFOScheduler())
        seen = {}

        class Capture(DigestRecorder):
            needs_records = True  # as the sanitizer asks

            def observe(self, engine, jobs, records, *columns):
                seen.update(engine=engine, jobs=jobs, records=records,
                            events=list(zip(*(np.asarray(c).tolist() for c in columns))))

        engine_cls(kw.pop("cluster"), kw.pop("scheduler"), sanitizer=Capture(), **kw).run(trace)
        self.engine = seen["engine"]
        self.jobs = seen["jobs"]
        self.records = seen["records"]
        self.events = seen["events"]

    def check(self, events=None, records=None, engine=None, fail_fast=False):
        """Run a fresh sanitizer over the (mutated) observation."""
        events = self.events if events is None else events
        columns = [list(c) for c in zip(*events)] or [[], [], [], []]
        san = Sanitizer(fail_fast=fail_fast)
        san.observe(
            engine or self.engine, self.jobs,
            self.records if records is None else records, *columns,
        )
        return san

    def record(self, kind):
        return next(r for r in self.records if r.kind == kind)


def messages(san, check_id):
    return [v.message for v in san.violations if v.check_id == check_id]


@pytest.fixture
def run():
    return Observed()


@pytest.fixture
def preempted():
    """A kill and its stale departure: the urgent job's arrival at t=5
    kills the hog's map 0, whose stale departure pops at t=100 after the
    rerun started at t=15."""
    hog = make_constant_profile(name="hog", num_maps=2, num_reduces=1, map_s=100.0)
    urgent = make_constant_profile(name="urgent", num_maps=1, num_reduces=1, map_s=10.0)
    observed = Observed(
        [TraceJob(hog, 0.0, deadline=500.0), TraceJob(urgent, 5.0, deadline=30.0)],
        cluster=ClusterConfig(1, 1),
        scheduler=MaxEDFScheduler(preemptive=True),
        preemption=True,
        record_tasks=False,  # a sanitizer keeps the records it needs
    )
    assert observed.events[10] == (100.0, MAP_DEP, 0, 0)
    assert [r.killed for r in observed.records].count(True) == 1
    return observed


class TestEventChecks:
    def test_clean_reference_run(self, run):
        assert run.events[9] == (10.0, ALL_MAPS, 0, -1)
        assert run.check().violations == []

    def test_evt001_pop_out_of_order(self, run):
        events = list(run.events)
        events[0] = (5.0, JOB_ARR, 0, -1)  # arrives after its first map starts
        san = run.check(events)
        assert check_ids(san) == ["EVT001"]
        assert san.violations[0].event_index == 2

    def test_evt001_type_priority_tiebreak(self, run):
        # Same timestamp, but a lower-priority type came first.
        events = list(run.events)
        events[9], events[10] = events[10], events[9]
        san = run.check(events)
        assert check_ids(san) == ["EVT001"]
        assert san.violations[0].event_index == 11

    def test_evt001_only_waives_the_started_attempts_departure(self, run):
        # A zero-duration map departs at the instant it started; any
        # other same-instant departure that sorts back is still flagged.
        assert run.events[1] == (0.0, MAP_ARR, 0, 0)
        for departure, ok in [
            ((0.0, MAP_DEP, 0, 0), True),
            ((0.0, MAP_DEP, 0, 1), False),  # another task
            ((0.0, MAP_DEP, 1, 0), False),  # another job
            ((0.0, RED_DEP, 0, 0), False),  # the other kind
        ]:
            events = run.events[:2] + [departure] + run.events[2:]
            ids = check_ids(run.check(events))
            assert ("EVT001" not in ids) is ok, departure

    @pytest.mark.parametrize("engine_cls", [SimulatorEngine, ColumnarEngine])
    @pytest.mark.parametrize("shape", [(1, 0), (0, 1)])
    def test_zero_duration_task_run_is_clean(self, engine_cls, shape):
        # One job with one 0.0 s task: its departure pops right after
        # its own arrival, ahead of it in (time, type) order.
        num_maps, num_reduces = shape
        profile = make_constant_profile(
            num_maps=num_maps, num_reduces=num_reduces,
            map_s=0.0, first_shuffle_s=0.0, typical_shuffle_s=0.0, reduce_s=0.0,
        )
        san = Sanitizer(fail_fast=False)
        engine_cls(ClusterConfig(1, 1), FIFOScheduler(), sanitizer=san).run(
            [TraceJob(profile, 0.0)]
        )
        assert san.violations == []

    def test_evt002_negative_time_raises_fail_fast(self, run):
        events = [(-1.0, JOB_ARR, 0, -1)] + run.events[1:]
        with pytest.raises(SimsanViolation) as exc:
            run.check(events, fail_fast=True)
        violation = exc.value.violation
        assert violation.check_id == "EVT002"
        assert violation.event_index == 1
        assert "EVT002" in str(exc.value) and "t=-1" in str(exc.value)


class TestSlotChecks:
    def test_slt001_free_slots_over_capacity(self, run):
        # The same stream on 2 map slots: the third map overruns them.
        small = SimulatorEngine(ClusterConfig(2, 4), FIFOScheduler(), sanitize=False)
        san = run.check(engine=small)
        assert check_ids(san) == ["SLT001"]
        assert san.violations[0].event_index == 4
        assert "3 map tasks running on 2 map slots" in san.violations[0].message

    def test_slt001_leaked_free_slot(self, run):
        # A second departure of map 0 gives back a slot it never held.
        events = run.events[:6] + [run.events[5]] + run.events[6:]
        san = run.check(events)
        assert messages(san, "SLT001") == ["1 more map departures than map arrivals"]

    def test_slt001_counts_kills_and_skips_stale_departures(self, preempted):
        assert preempted.check().violations == []
        # Unmark the kill: the stale departure now counts, and the rerun
        # overruns the single map slot.
        records = [replace(r, killed=False) for r in preempted.records]
        ids = check_ids(preempted.check(records=records))
        assert "SLT001" in ids and "LIF005" in ids


class TestLifecycleChecks:
    def test_lif001_completed_exceeds_dispatched(self, run):
        # Map 3 departs but never arrived.
        events = run.events[:4] + run.events[5:]
        records = [r for r in run.records if not (r.kind == "map" and r.index == 3)]
        san = run.check(events, records)
        assert any("not running" in m for m in messages(san, "LIF001"))

    def test_lif001_completed_exceeds_total(self, run):
        events = run.events[:6] + [run.events[5]] + run.events[6:]
        san = run.check(events)
        assert any("a second time" in m for m in messages(san, "LIF001"))

    def test_lif001_event_names_no_task(self, run):
        events = list(run.events)
        events[5] = (10.0, MAP_DEP, 0, 9)  # the job has 4 maps
        san = run.check(events)
        assert check_ids(san) == ["LIF001"]
        assert "names no job or task" in san.violations[0].message

    def test_lif002_two_completions_in_one_event(self, run):
        # ALL_MAPS_FINISHED completes the map stage with map 3 still out.
        events = run.events[:8] + run.events[9:]
        san = run.check(events)
        assert any("3/4 maps done" in m for m in messages(san, "LIF002"))

    def test_lif002_completion_outside_departure_event(self, run):
        # ALL_MAPS_FINISHED before the final map departure.
        events = run.events[:8] + [run.events[9], run.events[8]] + run.events[10:]
        san = run.check(events)
        assert any("not at its final map departure" in m for m in messages(san, "LIF002"))

    def test_lif002_missing_map_stage_event(self, run):
        events = run.events[:9] + run.events[10:]
        san = run.check(events)
        assert check_ids(san) == ["LIF002"]

    def test_lif003_illegal_state_jump(self, run):
        # Tasks run for a job that never arrived.
        san = run.check(run.events[1:])
        assert "LIF003" in check_ids(san)
        assert any("precedes the job's arrival" in m for m in messages(san, "LIF003"))

    def test_lif003_event_after_departure(self, run):
        events = run.events[:13] + [run.events[14], run.events[13]]
        san = run.check(events)
        assert any("follows the job's departure" in m for m in messages(san, "LIF003"))

    def test_lif004_completion_time_rewritten(self, run):
        run.jobs[0].completion_time = 19.0
        san = run.check()
        assert check_ids(san) == ["LIF004"]
        assert "completion_time is 19.0" in san.violations[0].message

    def test_lif004_missing_departure(self, run):
        san = run.check(run.events[:-1])
        assert check_ids(san) == ["LIF004"]
        assert "never departed" in san.violations[0].message

    def test_lif004_records_disagree_with_stream(self, run):
        records = list(run.records)
        records[0] = replace(records[0], start=1.0)
        assert "LIF004" in check_ids(run.check(records=records))

    def test_lif005_dispatch_regression_without_preemption(self, run):
        # Map 0 starts again although nothing killed it.
        events = run.events[:5] + [run.events[1]] + run.events[5:]
        records = run.records[:4] + [run.records[0]] + run.records[4:]
        san = run.check(events, records)
        assert any("never killed" in m for m in messages(san, "LIF005"))

    def test_lif005_waived_with_preemption_enabled(self, preempted):
        assert preempted.check().violations == []
        unpreemptive = SimulatorEngine(
            ClusterConfig(1, 1), MaxEDFScheduler(), sanitize=False
        )
        san = preempted.check(engine=unpreemptive)
        assert messages(san, "LIF005") == [
            "a task attempt was killed with preemption disabled"
        ]

    def test_lif005_kill_where_no_job_arrives(self, preempted):
        records = list(preempted.records)
        records[0] = replace(records[0], end=6.0)
        san = preempted.check(records=records)
        assert any("where no job arrives" in m for m in messages(san, "LIF005"))


class TestEndRunChecks:
    """A clean run's stream with corrupted records, or a stream that
    ends holding slots."""

    def test_clean_run_passes_end_checks(self, run):
        assert run.check().violations == []

    def test_fin001_slot_not_returned(self, run):
        events = run.events[:13] + run.events[14:]  # reduce 1 never departs
        san = run.check(events)
        assert "FIN001" in check_ids(san)
        assert any("reduce slot leaked" in m for m in messages(san, "FIN001"))

    def test_ovl001_unrewritten_filler(self, run):
        rec = run.record("reduce")
        rec.shuffle_end, rec.end = None, math.inf
        san = run.check()
        assert check_ids(san) == ["OVL001"]
        assert "infinite filler" in san.violations[0].message

    def test_overflowed_rewrite_is_not_a_filler(self, run):
        # ALL_MAPS_FINISHED rewrote the filler, but the sums overflowed.
        rec = run.record("reduce")
        rec.shuffle_end, rec.end = math.inf, math.inf
        assert run.check().violations == []

    @pytest.mark.parametrize("engine_cls", [SimulatorEngine, ColumnarEngine])
    @pytest.mark.parametrize("num_maps", [1, 2])
    def test_overflowing_run_is_clean(self, engine_cls, num_maps):
        trace = [TraceJob(JobProfile(
            name="huge", num_maps=num_maps, num_reduces=1,
            map_durations=[1e308], first_shuffle_durations=[1e308],
            typical_shuffle_durations=[1e308], reduce_durations=[1e308],
        ), 0.0)]
        san = Sanitizer(fail_fast=False)
        engine_cls(
            ClusterConfig(1, 1), FIFOScheduler(), sanitizer=san,
            min_map_percent_completed=0.0,
        ).run(trace)
        assert san.violations == []

    def test_ovl001_phase_boundary_out_of_order(self, run):
        run.record("reduce").shuffle_end = run.record("reduce").start - 1.0
        assert "OVL001" in check_ids(run.check())

    def test_ovl001_first_wave_started_after_map_stage(self, run):
        rec = run.record("reduce")
        assert rec.first_wave  # started at the map-stage end
        rec.start = rec.shuffle_end + 0.5  # "started" after the map stage end
        san = run.check()
        assert "OVL001" in check_ids(san)
        assert any("first-wave" in v.message for v in san.violations)

    def test_ovl002_map_duration_disagrees_with_profile(self, run):
        run.record("map").end += 1.0
        assert check_ids(run.check()) == ["OVL002"]

    def test_ovl002_reduce_phase_duration_disagrees(self, run):
        run.record("reduce").shuffle_end += 0.5  # shrinks the reduce phase
        assert "OVL002" in check_ids(run.check())

    def test_killed_records_are_exempt(self, run):
        rec = run.record("reduce")
        rec.shuffle_end = rec.start - 1.0
        rec.killed = True  # a preempted attempt's bounds are not checked
        ids = check_ids(run.check())
        assert not [i for i in ids if i.startswith("OVL")]

    def test_stalled_prefix_skips_end_checks(self):
        # Reduces on a cluster without reduce slots: the run stalls with
        # its fillers unrewritten and slots held; the prefix is clean.
        trace = [TraceJob(make_constant_profile(num_maps=2, num_reduces=1), 0.0)]
        san = Sanitizer(fail_fast=False)
        engine = SimulatorEngine(ClusterConfig(2, 0), FIFOScheduler(), sanitizer=san)
        with pytest.raises(RuntimeError, match="simulation stalled"):
            engine.run(trace)
        assert san.digest.count > 0 and san.violations == []


class _NegativeShuffle(ShuffleModel):
    """Prices every shuffle at -10 s: reduces end before they start."""

    def shuffle_duration(self, ctx):
        return -10.0


class _SneakyFIFO(FIFOScheduler):
    """'Helpfully' bumps engine bookkeeping for each arriving job."""

    def on_job_arrival(self, job, time, cluster):
        job.maps_dispatched += 1


class TestEndToEnd:
    """Broken behaviour reached through public seams, on either engine."""

    @pytest.mark.parametrize("engine_cls", [SimulatorEngine, ColumnarEngine])
    def test_sneaky_scheduler_state_never_reaches_the_stream(self, engine_cls):
        # The bumped counter is engine state, not an event, so no check
        # trips.  The object engine believes one map already ran,
        # dispatches maps 0-2 and stalls (loudly, with a clean prefix);
        # pass mode ignores the counter and emits the plain FIFO stream.
        profile = make_constant_profile(num_maps=4, num_reduces=2)
        trace = [TraceJob(profile, 0.0)]
        san = Sanitizer(digest=EventDigest(keep_events=True))
        engine = engine_cls(ClusterConfig(4, 4), _SneakyFIFO(), sanitizer=san)
        if engine_cls is SimulatorEngine:
            with pytest.raises(RuntimeError, match="simulation stalled"):
                engine.run(trace)
            maps = [e[3] for e in san.digest.events if e[1] == MAP_ARR]
            assert maps == [0, 1, 2]
        else:
            engine.run(trace)
            assert engine.last_kernel_mode == "passes"
            plain = Sanitizer()
            ColumnarEngine(ClusterConfig(4, 4), FIFOScheduler(), sanitizer=plain).run(trace)
            assert san.hexdigest() == plain.hexdigest()
            assert san.hexdigest().startswith("ae46aa36")
        assert san.violations == []

    @pytest.mark.parametrize("engine_cls", [SimulatorEngine, ColumnarEngine])
    def test_negative_shuffle_trips_evt_and_ovl_checks(self, engine_cls):
        san = Sanitizer(fail_fast=False)
        engine = engine_cls(
            ClusterConfig(4, 4), FIFOScheduler(),
            shuffle_model=_NegativeShuffle(), sanitizer=san,
        )
        profile = make_constant_profile(num_maps=4, num_reduces=2, map_s=1.0)
        engine.run([TraceJob(profile, 0.0)])
        assert {"EVT001", "EVT002", "OVL001"} <= set(check_ids(san))

    def test_pass_mode_stream_is_checked(self, monkeypatch):
        """A fault in pass mode's emission is caught: swap the first two
        events the kernel lays out."""
        emit = ColumnarEngine._event_columns

        def swapped(self, *args):
            columns = [np.array(c) for c in emit(self, *args)]
            for c in columns:
                c[[0, 1]] = c[[1, 0]]
            return columns

        monkeypatch.setattr(ColumnarEngine, "_event_columns", swapped)
        san = Sanitizer(fail_fast=False)
        engine = ColumnarEngine(ClusterConfig(4, 4), FIFOScheduler(), sanitizer=san)
        engine.run([TraceJob(make_constant_profile(num_maps=4, num_reduces=2), 0.0)])
        assert engine.last_kernel_mode == "passes"
        assert "EVT001" in check_ids(san) and "LIF003" in check_ids(san)


# --------------------------------------------------------------------- #
# event digests and dual-run divergence
# --------------------------------------------------------------------- #


class TestEventDigest:
    def test_reset_restores_fresh_fingerprint(self):
        digest = EventDigest()
        empty = digest.hexdigest()
        digest.update(1.0, MAP_DEP, 0, 2)
        assert digest.count == 1 and digest.hexdigest() != empty
        digest.reset()
        assert digest.count == 0 and digest.hexdigest() == empty

    def test_identical_streams_compare_equal(self):
        a, b = EventDigest(), EventDigest()
        for d in (a, b):
            d.update(1.0, MAP_DEP, 0, 2)
            d.update(2.0, RED_DEP, 0, 0)
        report = compare_digests(a, b)
        assert not report.diverged
        assert "identical" in report.describe()

    def test_order_matters(self):
        a, b = EventDigest(), EventDigest()
        a.update(1.0, MAP_DEP, 0, 2)
        a.update(2.0, RED_DEP, 0, 0)
        b.update(2.0, RED_DEP, 0, 0)
        b.update(1.0, MAP_DEP, 0, 2)
        report = compare_digests(a, b)
        assert report.diverged and report.first_index == 0

    def test_keep_events_false_detects_but_cannot_localise(self):
        a = EventDigest(keep_events=False)
        b = EventDigest(keep_events=False)
        a.update(1.0, MAP_DEP, 0, 2)
        b.update(1.0, MAP_DEP, 0, 3)
        report = compare_digests(a, b)
        assert report.diverged and report.first_index is None
        assert "DIV001" in report.describe()

    def test_length_mismatch_diverges(self):
        a, b = EventDigest(), EventDigest()
        a.update(1.0, MAP_DEP, 0, 2)
        b.update(1.0, MAP_DEP, 0, 2)
        b.update(2.0, RED_DEP, 0, 0)
        report = compare_digests(a, b)
        assert report.diverged and report.first_index == 1
        assert report.event_a is None and report.event_b == (2.0, RED_DEP, 0, 0)
        assert "<stream ended>" in report.describe()


class TestDualRun:
    def small_trace(self):
        return [
            TraceJob(
                make_constant_profile(
                    name=f"j{i}", num_maps=6, num_reduces=2, map_s=10.0 + i
                ),
                0.0,
            )
            for i in range(4)
        ]

    def test_deterministic_policy_replays_identically(self):
        outcome = dual_run(
            lambda: SimulatorEngine(ClusterConfig(4, 4), FIFOScheduler(), sanitize=False),
            self.small_trace(),
        )
        assert isinstance(outcome, DualRunOutcome)
        assert outcome.ok and not outcome.report.diverged
        assert outcome.results[0].makespan == outcome.results[1].makespan
        assert outcome.violations == ((), ())

    def test_hidden_global_state_diverges_with_first_event_named(self):
        spec = importlib.util.spec_from_file_location(
            "diverging_scheduler",
            REPO_ROOT / "tests" / "fixtures" / "diverging_scheduler.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        outcome = dual_run(
            lambda: SimulatorEngine(
                ClusterConfig(2, 2), module.DivergingScheduler(), sanitize=False
            ),
            self.small_trace(),
        )
        report = outcome.report
        assert report.diverged and not outcome.ok
        assert report.digest_a != report.digest_b
        # Event streams were kept, so the first divergence is localised.
        assert report.first_index is not None
        assert report.event_a != report.event_b
        described = report.describe()
        assert "DIV001" in described and "diverged at event #" in described
        # Both runs individually satisfied every invariant — the *pair*
        # is what is broken, which no single-run check can see.
        assert outcome.violations == ((), ())
        round_tripped = json.loads(json.dumps(report.to_dict()))
        assert round_tripped["diverged"] is True
        assert round_tripped["first_index"] == report.first_index


# --------------------------------------------------------------------- #
# the combined gate: run_check and the CLI
# --------------------------------------------------------------------- #


class TestRunCheck:
    def test_dynamic_half_passes_on_builtin_policies(self):
        report = run_check(schedulers=("fifo", "minedf"), jobs=5, seed=2, static=False)
        assert report.ok
        assert [r.scheduler for r in report.runs] == ["fifo", "minedf"]
        assert all(r.events > 0 and not r.divergence.diverged for r in report.runs)
        assert "simmr check: PASS" in report.render_text()

    def test_fifo_replay_takes_pass_mode(self, monkeypatch):
        """The dynamic half checks ColumnarEngine in the mode a sweep cell
        takes: pass mode for FIFO."""
        modes = []
        run = ColumnarEngine.run

        def spy(self, trace):
            result = run(self, trace)
            modes.append(self.last_kernel_mode)
            return result

        monkeypatch.setattr(ColumnarEngine, "run", spy)
        report = run_check(schedulers=("fifo",), jobs=4, seed=2, static=False,
                           policy=False)
        assert report.ok
        assert modes == ["passes", "passes"]

    def test_static_half_reports_fixture_findings(self):
        report = run_check(
            [REPO_ROOT / "tests" / "fixtures" / "bad_scheduler.py"], dynamic=False
        )
        assert not report.ok and report.findings and not report.runs
        text = report.render_text()
        assert "simmr check: FAIL" in text and "DET001" in text

    def test_to_dict_round_trips_through_json(self):
        report = run_check(schedulers=("fifo",), jobs=3, seed=2, static=False)
        data = json.loads(report.render_json())
        assert data["ok"] is True
        assert data["dynamic"][0]["scheduler"] == "fifo"
        assert data["dynamic"][0]["divergence"]["diverged"] is False


class TestCheckCli:
    def test_check_dynamic_only_passes(self, capsys):
        rc = main(["check", "--dynamic-only", "--schedulers", "fifo", "--jobs", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "simmr check: PASS" in out

    def test_check_static_only_fails_on_fixture(self, capsys):
        rc = main(["check", "--static-only", "tests/fixtures/bad_scheduler.py"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "simmr check: FAIL" in out

    def test_check_exclusive_flags_usage_error(self, capsys):
        rc = main(["check", "--static-only", "--dynamic-only"])
        assert rc == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_check_json_format(self, capsys):
        rc = main(
            ["check", "--dynamic-only", "--schedulers", "fifo", "--jobs", "3",
             "--format", "json"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True and len(data["dynamic"]) == 1


class TestReplaySanitizeCli:
    def test_replay_with_sanitize_flag(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(["generate", str(trace_path), "--jobs", "3", "--seed", "1"]) == 0
        assert main(["replay", str(trace_path), "--sanitize"]) == 0
        assert "makespan" in capsys.readouterr().out
