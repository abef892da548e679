"""Tests for the runtime simulation sanitizer (``repro.sanitize``).

Covers the three ways simsan turns on (env var, constructor flag,
explicit instance), that clean runs on every scheduling policy stay
clean, that each check family fires on deliberately broken engine
state, the dual-run divergence detector (including localising the
first diverging event), and the ``simmr check`` / ``replay --sanitize``
CLI surface.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import ClusterConfig, ColumnarEngine, SimulatorEngine, TraceJob
from repro.core.job import Job, JobState
from repro.core.shuffle import ShuffleModel
from repro.sanitize import (
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


def make_job(num_maps=4, num_reduces=2):
    profile = make_constant_profile(num_maps=num_maps, num_reduces=num_reduces)
    return Job(0, TraceJob(profile, 0.0))


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
# each check family fires on deliberately broken state
# --------------------------------------------------------------------- #


class TestEventChecks:
    def test_evt001_pop_out_of_order(self):
        san = Sanitizer(fail_fast=False)
        san.begin_run(fresh_engine(), [])
        san.observe_pop(5.0, JOB_ARR, 0, 0, -1)
        san.observe_pop(3.0, JOB_ARR, 1, 0, -1)
        assert check_ids(san) == ["EVT001"]

    def test_evt001_type_priority_tiebreak(self):
        # Same timestamp, but a lower-priority type popped first.
        san = Sanitizer(fail_fast=False)
        san.begin_run(fresh_engine(), [])
        san.observe_pop(5.0, JOB_ARR, 0, 0, -1)
        san.observe_pop(5.0, MAP_DEP, 1, 0, 0)
        assert check_ids(san) == ["EVT001"]

    def test_evt001_only_waives_the_started_attempts_departure(self):
        # A zero-duration map departs at the instant it started; any
        # other same-instant departure that sorts back is still flagged.
        for departure, ok in [
            ((5.0, MAP_DEP, 9, 0, 0), True),
            ((5.0, MAP_DEP, 9, 0, 1), False),  # another task
            ((5.0, MAP_DEP, 9, 1, 0), False),  # another job
            ((5.0, RED_DEP, 9, 0, 0), False),  # the other kind
            ((5.0, MAP_DEP, 3, 0, 0), False),  # pushed before the arrival
        ]:
            san = Sanitizer(fail_fast=False)
            san.begin_run(fresh_engine(), [])
            san.observe_pop(5.0, MAP_ARR, 4, 0, 0)
            san.observe_pop(*departure)
            assert check_ids(san) == ([] if ok else ["EVT001"]), departure

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

    def test_evt002_negative_time_raises_fail_fast(self):
        san = Sanitizer()
        san.begin_run(fresh_engine(), [])
        with pytest.raises(SimsanViolation) as exc:
            san.observe_pop(-1.0, JOB_ARR, 0, 0, -1)
        violation = exc.value.violation
        assert violation.check_id == "EVT002"
        assert violation.event_index == 1
        assert "EVT002" in str(exc.value) and "t=-1" in str(exc.value)


class TestSlotChecks:
    def test_slt001_leaked_free_slot(self):
        engine = fresh_engine()
        san = Sanitizer(fail_fast=False)
        san.begin_run(engine, [])
        cluster = engine.cluster
        # A slot vanished with nothing running.
        san.observe_handled(
            make_job(), JOB_ARR, [], cluster.map_slots - 1, cluster.reduce_slots
        )
        assert check_ids(san) == ["SLT001"]

    def test_slt001_free_slots_over_capacity(self):
        engine = fresh_engine()
        san = Sanitizer(fail_fast=False)
        san.begin_run(engine, [])
        cluster = engine.cluster
        san.observe_handled(
            make_job(), JOB_ARR, [], cluster.map_slots, cluster.reduce_slots + 2
        )
        assert check_ids(san) == ["SLT001"]


class TestLifecycleChecks:
    def observe(self, san, engine, job, etype=JOB_ARR):
        # An empty job queue with every slot free: slot checks pass.
        cluster = engine.cluster
        san.observe_handled(job, etype, [], cluster.map_slots, cluster.reduce_slots)

    def test_lif001_completed_exceeds_dispatched(self):
        engine, san, job = fresh_engine(), Sanitizer(fail_fast=False), make_job()
        san.begin_run(engine, [])
        job.maps_completed = 1
        self.observe(san, engine, job, MAP_DEP)
        assert check_ids(san) == ["LIF001"]

    def test_lif001_completed_exceeds_total(self):
        engine, san, job = fresh_engine(), Sanitizer(fail_fast=False), make_job(num_maps=2)
        san.begin_run(engine, [])
        job.maps_dispatched = job.maps_completed = 2
        self.observe(san, engine, job, MAP_DEP)
        san.violations.clear()
        job.maps_completed = 3  # a task "completed" twice
        self.observe(san, engine, job, MAP_DEP)
        assert "LIF001" in check_ids(san)

    def test_lif002_two_completions_in_one_event(self):
        engine, san, job = fresh_engine(), Sanitizer(fail_fast=False), make_job()
        san.begin_run(engine, [])
        job.maps_dispatched = job.maps_completed = 2
        self.observe(san, engine, job, MAP_DEP)
        assert check_ids(san) == ["LIF002"]

    def test_lif002_completion_outside_departure_event(self):
        engine, san, job = fresh_engine(), Sanitizer(fail_fast=False), make_job()
        san.begin_run(engine, [])
        job.reduces_dispatched = job.reduces_completed = 1
        self.observe(san, engine, job, JOB_ARR)  # not a reduce departure
        assert check_ids(san) == ["LIF002"]

    def test_lif003_illegal_state_jump(self):
        engine, san, job = fresh_engine(), Sanitizer(fail_fast=False), make_job()
        san.begin_run(engine, [])
        job.state = JobState.COMPLETED  # PENDING -> COMPLETED, skipping RUNNING
        self.observe(san, engine, job)
        assert "LIF003" in check_ids(san)

    def test_lif004_completion_time_rewritten(self):
        engine, san, job = fresh_engine(), Sanitizer(fail_fast=False), make_job()
        san.begin_run(engine, [])
        job.state = JobState.RUNNING
        job.completion_time = 5.0
        self.observe(san, engine, job)
        assert san.violations == []
        job.completion_time = 6.0
        self.observe(san, engine, job)
        assert check_ids(san) == ["LIF004"]

    def test_lif005_dispatch_regression_without_preemption(self):
        engine, san, job = fresh_engine(), Sanitizer(fail_fast=False), make_job()
        san.begin_run(engine, [])
        job.state = JobState.RUNNING
        job.maps_dispatched = 2
        self.observe(san, engine, job)
        job.maps_dispatched = 1
        self.observe(san, engine, job)
        assert check_ids(san) == ["LIF005"]

    def test_lif005_waived_with_preemption_enabled(self):
        engine = fresh_engine(preemption=True)
        san, job = Sanitizer(fail_fast=False), make_job()
        san.begin_run(engine, [])
        job.state = JobState.RUNNING
        job.maps_dispatched = 2
        self.observe(san, engine, job)
        job.maps_dispatched = 1
        self.observe(san, engine, job)
        assert san.violations == []


class TestEndRunChecks:
    """Run a real trace clean, then corrupt its records."""

    def finished_run(self):
        """The jobs and task records a clean run hands to ``end_run``."""
        final = {}

        class Capture(Sanitizer):
            def end_run(self, jobs, records, free_maps, free_reduces):
                final.update(jobs=jobs, records=records)

        engine = SimulatorEngine(
            ClusterConfig(4, 4), FIFOScheduler(), sanitizer=Capture(fail_fast=False)
        )
        profile = make_constant_profile(num_maps=4, num_reduces=2)
        engine.run([TraceJob(profile, 0.0)])
        return final["jobs"], final["records"]

    def end_run(self, jobs, records, free_maps=4, free_reduces=4):
        san = Sanitizer(fail_fast=False)
        san.begin_run(fresh_engine(), [])
        san.end_run(jobs, records, free_maps, free_reduces)
        return san

    def reduce_record(self, records):
        return next(r for r in records if r.kind == "reduce")

    def test_clean_run_passes_end_checks(self):
        assert self.end_run(*self.finished_run()).violations == []

    def test_fin001_slot_not_returned(self):
        san = self.end_run(*self.finished_run(), free_maps=3)
        assert check_ids(san) == ["FIN001"]
        assert "map slot leaked" in san.violations[0].message

    def test_ovl001_unrewritten_filler(self):
        jobs, records = self.finished_run()
        rec = self.reduce_record(records)
        rec.end = math.inf
        san = self.end_run(jobs, records)
        assert check_ids(san) == ["OVL001"]
        assert "infinite filler" in san.violations[0].message

    def test_ovl001_phase_boundary_out_of_order(self):
        jobs, records = self.finished_run()
        rec = self.reduce_record(records)
        rec.shuffle_end = rec.start - 1.0
        san = self.end_run(jobs, records)
        assert "OVL001" in check_ids(san)

    def test_ovl001_first_wave_started_after_map_stage(self):
        jobs, records = self.finished_run()
        rec = self.reduce_record(records)
        assert rec.first_wave  # 4 slots, slow-start 5%: reduces overlap maps
        rec.start = rec.shuffle_end + 0.5  # "started" after the map stage end
        san = self.end_run(jobs, records)
        assert "OVL001" in check_ids(san)
        assert any("first-wave" in v.message for v in san.violations)

    def test_ovl002_map_duration_disagrees_with_profile(self):
        jobs, records = self.finished_run()
        rec = next(r for r in records if r.kind == "map")
        rec.end += 1.0
        san = self.end_run(jobs, records)
        assert check_ids(san) == ["OVL002"]

    def test_ovl002_reduce_phase_duration_disagrees(self):
        jobs, records = self.finished_run()
        rec = self.reduce_record(records)
        rec.shuffle_end += 0.5  # shrinks the reduce phase below the profile
        san = self.end_run(jobs, records)
        assert "OVL002" in check_ids(san)

    def test_killed_records_are_exempt(self):
        jobs, records = self.finished_run()
        rec = self.reduce_record(records)
        rec.shuffle_end = rec.start - 1.0
        rec.killed = True  # a preempted attempt's bounds are not checked
        assert self.end_run(jobs, records).violations == []


class _NegativeShuffle(ShuffleModel):
    """Prices every shuffle at -10 s: reduces end before they start."""

    def shuffle_duration(self, ctx):
        return -10.0


class _SneakyFIFO(FIFOScheduler):
    """'Helpfully' bumps engine bookkeeping for each arriving job."""

    def on_job_arrival(self, job, time, cluster):
        job.maps_dispatched += 1


class TestEndToEnd:
    """Broken behaviour reached through public seams trips the checks
    during a real run, on either engine."""

    @pytest.mark.parametrize("engine_cls", [SimulatorEngine, ColumnarEngine])
    def test_sneaky_scheduler_trips_slt001_during_run(self, engine_cls):
        engine = engine_cls(ClusterConfig(4, 4), _SneakyFIFO(), sanitize=True)
        profile = make_constant_profile(num_maps=4, num_reduces=2)
        with pytest.raises(SimsanViolation, match="SLT001"):
            engine.run([TraceJob(profile, 0.0)])

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
