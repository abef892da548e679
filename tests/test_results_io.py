"""Tests for output-log serialization (JSON + CSV) and the Rumen loader."""

from __future__ import annotations

import json
import re
import sqlite3
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ClusterConfig, TraceJob, simulate
from repro.core.job import TaskRecord
from repro.core.results import JobResult, SimulationResult
from repro.core.results_io import (
    jobs_to_csv,
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.mumak import dumps_rumen, loads_rumen
from repro.parallel import ResultCache, SchedulerSpec, SimTask, cache_key, simulate_many
from repro.sanitize.digest import trace_digest
from repro.schedulers import FIFOScheduler

from conftest import make_constant_profile

#: A format-2 (row form) output log, written by ``save_result`` before
#: the column layout, for :func:`_v2_fixture_replay`'s run.
V2_FIXTURE = Path(__file__).parent / "fixtures" / "result_v2.json"


@pytest.fixture
def result():
    profile = make_constant_profile(num_maps=4, num_reduces=2)
    trace = [TraceJob(profile, 0.0, deadline=100.0), TraceJob(profile, 5.0)]
    return simulate(trace, FIFOScheduler(), ClusterConfig(4, 4))


class TestResultJSON:
    def test_round_trip(self, result):
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.scheduler_name == result.scheduler_name
        assert rebuilt.makespan == result.makespan
        assert rebuilt.completion_times() == result.completion_times()
        assert len(rebuilt.task_records) == len(result.task_records)
        assert rebuilt.relative_deadline_exceeded() == pytest.approx(
            result.relative_deadline_exceeded()
        )

    def test_task_records_preserved(self, result):
        rebuilt = result_from_dict(result_to_dict(result))
        orig = result.task_records_for(0, "reduce")[0]
        back = rebuilt.task_records_for(0, "reduce")[0]
        assert back.start == orig.start
        assert back.shuffle_end == orig.shuffle_end
        assert back.first_wave == orig.first_wave

    def test_file_round_trip(self, result, tmp_path):
        path = tmp_path / "out.json"
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.completion_times() == result.completion_times()

    def test_round_trip_is_lossless(self, result):
        """Every field survives — including the execution metadata
        (events_processed, wall_clock_seconds, event_digest) that a
        cache restore depends on."""
        result.event_digest = "ab" * 16
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.events_processed == result.events_processed
        assert rebuilt.wall_clock_seconds == result.wall_clock_seconds
        assert rebuilt.event_digest == result.event_digest
        assert rebuilt == result

    def test_round_trip_fixpoint(self, result):
        """Serializing a deserialized document reproduces it exactly."""
        doc = result_to_dict(result)
        assert result_to_dict(result_from_dict(doc)) == doc

    def test_version_checked(self, result):
        doc = result_to_dict(result)
        doc["format_version"] = 99
        with pytest.raises(ValueError, match="format version"):
            result_from_dict(doc)

    def test_reads_v1_documents(self, result):
        """Pre-event-digest files (format v1, one object per job and per
        record, records without ``killed``) still load."""
        doc = _row_document(result, version=1)
        del doc["event_digest"]
        for record in doc["task_records"]:
            del record["killed"]
        rebuilt = result_from_dict(doc)
        assert rebuilt.event_digest is None
        assert rebuilt.jobs == result.jobs
        assert rebuilt.task_records == result.task_records
        assert rebuilt.makespan == result.makespan

    def test_writes_columns(self, result):
        doc = result_to_dict(result)
        assert doc["format_version"] == 3
        assert doc["jobs"]["job_id"] == [0, 1]
        assert doc["jobs"]["deadline"] == [100.0, None]
        assert len(doc["task_records"]["kind"]) == len(result.task_records)

    def test_ignores_fallback_reason_of_older_documents(self, result):
        """Cache entries written while the kernel still delegated to the
        object engine carry a ``fallback_reason`` key; it is ignored."""
        doc = result_to_dict(result)
        assert "fallback_reason" not in doc
        rebuilt = result_from_dict({**doc, "fallback_reason": "pluggable shuffle model"})
        assert rebuilt == result_from_dict(doc)


def _rows(columns: dict) -> list:
    """Version-3 columns as the row objects of versions 1 and 2."""
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def _row_document(result, version: int) -> dict:
    """``result`` in the row form of format versions 1 and 2."""
    doc = result_to_dict(result)
    return {
        **doc,
        "format_version": version,
        "jobs": _rows(doc["jobs"]),
        "task_records": _rows(doc["task_records"]),
    }


#: A corruption of a version-3 document and the field its error names.
_MALFORMED = {
    "unequal-jobs": (lambda doc: doc["jobs"]["deadline"].pop(), "'jobs.deadline' has"),
    "unequal-records": (
        lambda doc: doc["task_records"]["first_wave"].append(True),
        "'task_records.first_wave' has",
    ),
    "missing": (lambda doc: doc["jobs"].pop("completion_time"), "'jobs.completion_time'"),
    "not-a-list": (lambda doc: doc["jobs"].__setitem__("name", "const"), "'jobs.name'"),
    "rows": (
        lambda doc: doc.__setitem__("jobs", _rows(doc["jobs"])),
        "'jobs' must be an object of columns",
    ),
}


class TestMalformedColumns:
    """A version-3 document whose columns do not line up fails loudly:
    building by position would otherwise drop the surplus jobs."""

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_raises_naming_the_field(self, result, case):
        corrupt, message = _MALFORMED[case]
        doc = result_to_dict(result)
        corrupt(doc)
        with pytest.raises(ValueError, match=re.escape(message)):
            result_from_dict(doc)

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_cache_drops_the_row_as_a_miss(self, result, case):
        corrupt, _ = _MALFORMED[case]
        doc = result_to_dict(result)
        corrupt(doc)
        with ResultCache() as cache:
            cache.put("k", result)
            cache._conn.execute(
                "UPDATE results SET payload = ? WHERE key = ?", (json.dumps(doc), "k")
            )
            assert cache.get("k") is None
            assert cache.stats.misses == 1 and cache.stats.hits == 0
            assert not cache.contains("k")


def _v2_fixture_replay() -> tuple[list[TraceJob], SimTask]:
    """The trace and task ``V2_FIXTURE`` records: three jobs, two with
    deadlines, MaxEDF on 4x2 with task records."""
    trace = [
        TraceJob(make_constant_profile("a", num_maps=4, num_reduces=2), 0.0, deadline=60.0),
        TraceJob(make_constant_profile("b", num_maps=3, num_reduces=1, map_s=7.0), 5.0),
        TraceJob(make_constant_profile("c", num_maps=2, num_reduces=0, map_s=4.0), 7.0, deadline=20.0),
    ]
    task = SimTask(
        "t", SchedulerSpec(kind="registry", name="maxedf"), ClusterConfig(4, 2), 0.05,
        record_tasks=True,
    )
    return trace, task


class TestRowFormFixture:
    """Cache rows and saved output logs in the row form already exist on
    disk; they must keep loading, and keep hitting."""

    def test_fixture_is_row_form(self):
        doc = json.loads(V2_FIXTURE.read_text())
        assert doc["format_version"] == 2
        assert isinstance(doc["jobs"], list) and isinstance(doc["task_records"], list)

    def test_loads_equal_to_a_fresh_replay(self):
        trace, task = _v2_fixture_replay()
        [fresh] = simulate_many({"t": trace}, [task])
        loaded = load_result(V2_FIXTURE)
        assert loaded.task_records and any(j.deadline is not None for j in loaded.jobs)
        loaded.wall_clock_seconds = fresh.result.wall_clock_seconds
        assert loaded == fresh.result

    def test_raw_cache_row_is_a_hit(self, tmp_path):
        trace, task = _v2_fixture_replay()
        path = tmp_path / "results.sqlite"
        ResultCache(path).close()
        key = cache_key(trace_digest(trace), task.scheduler.identity(), task.engine_config())
        conn = sqlite3.connect(path)
        conn.execute(
            "INSERT INTO results (key, trace_digest, scheduler, config, payload)"
            " VALUES (?, '', '', '', ?)",
            (key, V2_FIXTURE.read_text()),
        )
        conn.commit()
        conn.close()
        with ResultCache(path) as cache:
            [outcome] = simulate_many({"t": trace}, [task], cache=cache)
            assert outcome.cached and cache.stats.hits == 1
        assert outcome.result == load_result(V2_FIXTURE)


_times = st.floats(allow_nan=False, allow_infinity=False)
_maybe_time = st.none() | _times
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max)

_job_results = st.builds(
    JobResult,
    job_id=st.integers(min_value=0, max_value=2**40),
    name=st.text(max_size=8),
    submit_time=_times,
    start_time=_maybe_time,
    map_stage_end=_maybe_time,
    completion_time=_maybe_time,
    deadline=_maybe_time,
    num_maps=st.integers(min_value=0, max_value=10**6),
    num_reduces=st.integers(min_value=0, max_value=10**6),
)
_task_records = st.builds(
    TaskRecord,
    kind=st.sampled_from(("map", "reduce")),
    job_id=st.integers(min_value=0, max_value=2**40),
    index=st.integers(min_value=0, max_value=10**6),
    start=_times,
    end=st.just(float("inf")) | _times,
    shuffle_end=_maybe_time,
    first_wave=st.booleans(),
    killed=st.booleans(),
)
_results = st.builds(
    SimulationResult,
    scheduler_name=st.text(max_size=8),
    jobs=st.lists(_job_results, max_size=6),
    task_records=st.lists(_task_records, max_size=6),
    makespan=_times,
    events_processed=st.integers(min_value=0, max_value=2**40),
    wall_clock_seconds=_times,
    event_digest=st.none() | st.text(alphabet="0123456789abcdef", min_size=32, max_size=32),
    engine_path=st.sampled_from((None, "kernel", "object")),
)

#: Hand-picked results the generated ones must include.
_EDGE_RESULT = SimulationResult(
    scheduler_name="edge",
    jobs=[
        JobResult(0, "unstarted", 0.0, None, None, None, None, 1, 0),
        *(JobResult(i + 1, "edge", x, x, -x, x, x, 1, 1) for i, x in enumerate(_EDGE_FLOATS)),
    ],
    task_records=[
        TaskRecord("map", 0, 0, -0.0),
        TaskRecord("reduce", 1, 0, 5e-324, sys.float_info.max, -0.0, first_wave=True),
        TaskRecord("map", 1, 1, 2.0, 3.0, killed=True),
    ],
    makespan=-0.0,
    events_processed=0,
    wall_clock_seconds=5e-324,
)


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(result=_results)
    @example(result=_EDGE_RESULT)
    @example(result=SimulationResult("empty", [], [], 0.0, 0, 0.0))
    @example(result=SimulationResult("no-records", _EDGE_RESULT.jobs, [], 1.0, 1, 1.0))
    @example(result=SimulationResult("no-jobs", [], _EDGE_RESULT.task_records, 1.0, 1, 1.0))
    def test_json_round_trip_is_exact_and_a_fixpoint(self, result):
        text = json.dumps(result_to_dict(result))
        rebuilt = result_from_dict(json.loads(text))
        assert rebuilt == result
        # Text equality also tells -0.0 from 0.0, which == does not.
        assert json.dumps(result_to_dict(rebuilt)) == text
        assert [type(j) for j in rebuilt.jobs] == [JobResult] * len(result.jobs)


class TestCSV:
    def test_header_and_rows(self, result):
        csv_text = jobs_to_csv(result)
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("job_id,name,submit_time")
        assert len(lines) == 1 + len(result.jobs)
        assert "const" in lines[1]

    def test_deadline_column(self, result):
        csv_text = jobs_to_csv(result)
        first_row = csv_text.strip().splitlines()[1].split(",")
        assert first_row[7] == "100.0"  # deadline
        assert first_row[8] in ("True", "False")  # met_deadline


class TestRumenLoader:
    def test_round_trip(self):
        docs = [{"jobID": "job_1", "mapTasks": []}, {"jobID": "job_2", "mapTasks": []}]
        text = dumps_rumen(docs)
        assert loads_rumen(text) == docs

    def test_blank_lines_skipped(self):
        assert loads_rumen("\n\n{}\n\n") == [{}]

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError, match="line 2"):
            loads_rumen('{}\n{"broken": \n')
