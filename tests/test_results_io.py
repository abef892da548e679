"""Tests for output-log serialization (JSON + CSV) and the Rumen loader."""

from __future__ import annotations

import json
import math
import re
import sqlite3
import struct
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ClusterConfig, TraceJob, simulate
from repro.core import results_io
from repro.core.job import TaskRecord
from repro.core.results import JobResult, SimulationResult
from repro.core.results_io import (
    jobs_to_csv,
    load_result,
    result_from_bytes,
    result_from_dict,
    result_to_bytes,
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

    def test_document_and_columns_share_no_list(self, result):
        """A result keeps the JSON reader's value lists as its columns,
        so neither the document it was read from nor one written from it
        may alias them."""
        doc = result_to_dict(result)
        rebuilt = result_from_dict(doc)
        before = result_to_dict(rebuilt)
        for section in ("jobs", "task_records"):
            for column in doc[section].values():
                column.clear()
        written = result_to_dict(rebuilt)
        assert written == before
        for section in ("jobs", "task_records"):
            for column in written[section].values():
                column.clear()
        assert result_to_dict(rebuilt) == before
        assert rebuilt == result

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


_NON_OBJECTS = ("[]", "null", "5")


class TestNonObjectDocument:
    """Valid JSON that is not an object is a malformed document."""

    @pytest.mark.parametrize("text", _NON_OBJECTS)
    def test_load_result_raises_value_error(self, text, tmp_path):
        path = tmp_path / "out.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="must be an object"):
            load_result(path)

    @pytest.mark.parametrize("text", _NON_OBJECTS)
    def test_cache_drops_the_row_as_a_miss(self, result, text):
        with ResultCache() as cache:
            cache.put("k", result)
            cache._conn.execute("UPDATE results SET payload = ? WHERE key = ?", (text, "k"))
            assert cache.get("k") is None
            assert cache.stats.misses == 1 and cache.stats.hits == 0
            assert not cache.contains("k")


def _floats(result: SimulationResult) -> list:
    """Every float-or-None field of ``result``, in a fixed order."""
    values = [result.makespan, result.wall_clock_seconds]
    for j in result.jobs:
        values += [j.submit_time, j.start_time, j.map_stage_end, j.completion_time, j.deadline]
    for r in result.task_records:
        values += [r.start, r.end, r.shuffle_end]
    return values


def _bits(value):
    """``value``'s IEEE-754 bytes (None stays None): tells -0.0 from 0.0."""
    return None if value is None else struct.pack("<d", value)


#: Names the packed names text must carry: non-ASCII, astral, lone
#: surrogates, a surrogate pair kept as two code points, empty, NUL.
_ODD_NAMES = (
    "héllo", "\U0001f600 job", "\ud800", "a\udfffb", "", '"\\\n', "\ud83d\ude00", "\x00", "a\x00b",
)

_odd_names_result = SimulationResult(
    scheduler_name="\udc80 sched",
    jobs=[JobResult(i, name, 1.0, None, None, None, None, 1, 0) for i, name in enumerate(_ODD_NAMES)],
    task_records=[],
    makespan=float("inf"),
    events_processed=2**40,
    wall_clock_seconds=0.0,
    event_digest="ab" * 16,
    engine_path="kernel",
)

_bytes_results = st.builds(
    SimulationResult,
    scheduler_name=st.text(st.characters(exclude_categories=()), max_size=8),
    jobs=st.lists(
        st.builds(
            JobResult,
            job_id=st.integers(min_value=-(2**63), max_value=2**63 - 1),
            name=st.text(st.characters(exclude_categories=()), max_size=8),
            submit_time=_times,
            start_time=_maybe_time,
            map_stage_end=_maybe_time,
            completion_time=_maybe_time,
            deadline=_maybe_time,
            num_maps=st.integers(min_value=0, max_value=10**6),
            num_reduces=st.integers(min_value=0, max_value=10**6),
        ),
        max_size=6,
    ),
    task_records=st.lists(_task_records, max_size=6),
    makespan=_times,
    events_processed=st.integers(min_value=0, max_value=2**40),
    wall_clock_seconds=_times,
    event_digest=st.none() | st.text(alphabet="0123456789abcdef", min_size=32, max_size=32),
    engine_path=st.sampled_from((None, "kernel", "object")),
)


class TestBytesRoundTripProperty:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(result=_bytes_results)
    @example(result=_EDGE_RESULT)
    @example(result=SimulationResult("empty", [], [], 0.0, 0, 0.0))
    @example(result=SimulationResult("no-records", _EDGE_RESULT.jobs, [], 1.0, 1, 1.0))
    @example(result=SimulationResult("no-jobs", [], _EDGE_RESULT.task_records, 1.0, 1, 1.0))
    @example(result=_odd_names_result)
    def test_bytes_round_trip_is_exact_and_a_fixpoint(self, result):
        blob = result_to_bytes(result)
        rebuilt = result_from_bytes(blob)
        assert rebuilt == result
        assert list(map(_bits, _floats(rebuilt))) == list(map(_bits, _floats(result)))
        assert result_to_bytes(rebuilt) == blob
        assert [type(j) for j in rebuilt.jobs] == [JobResult] * len(result.jobs)

    def test_edge_result_reaches_every_case(self):
        """The hand-picked example holds what the layout must carry."""
        values = _floats(_EDGE_RESULT)
        assert None in values and math.inf in values
        assert {_bits(0.0), _bits(-0.0), _bits(5e-324), _bits(-5e-324)} <= set(map(_bits, values))
        records = _EDGE_RESULT.task_records
        assert any(r.killed for r in records) and any(r.first_wave for r in records)
        assert {r.kind for r in records} == {"map", "reduce"}
        for field in ("start_time", "map_stage_end", "completion_time", "deadline"):
            assert any(getattr(j, field) is None for j in _EDGE_RESULT.jobs)

    def test_starts_with_the_magic(self, result):
        assert result_to_bytes(result).startswith(results_io._BLOB_MAGIC)

    def test_unpackable_results_raise_value_error(self, result):
        big = SimulationResult("big", [JobResult(2**63, "x", 0.0, None, None, None, None, 1, 0)], [], 0.0, 0, 0.0)
        with pytest.raises(ValueError):
            result_to_bytes(big)
        odd = SimulationResult("odd", [], [TaskRecord("shuffle", 0, 0, 0.0)], 0.0, 0, 0.0)
        with pytest.raises(ValueError):
            result_to_bytes(odd)


_layout_results = st.builds(
    SimulationResult,
    scheduler_name=st.text(max_size=8),
    jobs=st.lists(_job_results, max_size=8),
    task_records=st.lists(_task_records, max_size=4),
    makespan=_times,
    events_processed=st.integers(min_value=0, max_value=2**40),
    wall_clock_seconds=_times,
)


def _column_backed(result: SimulationResult) -> dict:
    """Fresh column-backed twins of ``result``: its packed blocks, and the
    value lists of its JSON document."""
    blob = result_to_bytes(result)
    doc = json.loads(json.dumps(result_to_dict(result)))
    return {
        "blocks": lambda: result_from_bytes(blob),
        "values": lambda: result_from_dict(doc),
    }


class TestColumnLayoutsAgree:
    """A result built from columns behaves like one built from objects:
    every reader gives the same answer, floats bit for bit, whichever
    layout it reads and in whatever order the readers run."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(result=_layout_results)
    @example(result=_EDGE_RESULT)
    @example(result=SimulationResult("empty", [], [], 0.0, 0, 0.0))
    @example(
        result=SimulationResult(
            "late",
            [
                JobResult(0, "late", 0.0, 0.0, 1.0, 30.0, 10.0, 1, 0),
                JobResult(1, "early", 0.0, 0.0, 1.0, 5.0, 10.0, 1, 0),
                JobResult(2, "zero-deadline", 0.0, 0.0, 1.0, 5.0, 0.0, 1, 0),
                JobResult(3, "late", 1.0, 1.0, 2.0, 0.1 + 0.2, 0.1, 1, 0),
            ],
            [],
            30.0,
            8,
            0.0,
        )
    )
    def test_every_reader_agrees(self, result):
        objects = result.jobs
        text = json.dumps(result_to_dict(result))
        blob = result_to_bytes(result)
        csv_text = jobs_to_csv(result)
        utility = result.relative_deadline_exceeded()
        assert type(utility) is float
        assert _bits(utility) == _bits(sum((j.relative_deadline_exceeded() for j in objects), 0.0))
        for make in _column_backed(result).values():
            # The codecs and summaries first, before any object exists.
            assert json.dumps(result_to_dict(make())) == text
            assert result_to_bytes(make()) == blob
            assert jobs_to_csv(make()) == csv_text
            columns = make()
            got = columns.relative_deadline_exceeded()
            assert type(got) is float and _bits(got) == _bits(utility)
            assert _items_bits(columns.durations()) == _items_bits(result.durations())
            assert _items_bits(columns.completion_times()) == _items_bits(result.completion_times())
            assert len(columns) == len(result)
            assert columns.jobs_missed_deadline() == result.jobs_missed_deadline()
            for job in objects:
                assert make().job(job.job_id) == result.job(job.job_id)
            assert list(make()) == list(result)
            assert make().jobs == objects
            assert make() == result and result == make()
            assert not (make() != result) and not (result != make())


def _items_bits(mapping: dict) -> list:
    return [(key, _bits(value)) for key, value in mapping.items()]


_TAIL_FIELDS = (
    "makespan", "wall", "events", "nones", "scheduler_len", "digest_len", "path_len", "names_len",
)


def _tail_at(blob: bytes) -> int:
    """Where ``blob``'s tail starts: after the header and the blocks."""
    _, _, jobs, records = results_io._BLOB_HEADER.unpack_from(blob)
    blocks = jobs * results_io._JOB_BYTES + records * results_io._RECORD_BYTES
    return results_io._BLOB_HEADER.size + blocks


def _tail_of(blob: bytes) -> dict:
    """``blob``'s tail fields, and the raw bytes of its texts and name lengths."""
    at = _tail_at(blob)
    tail = dict(zip(_TAIL_FIELDS, results_io._BLOB_TAIL.unpack_from(blob, at)))
    at += results_io._BLOB_TAIL.size
    for text, length in (("scheduler", tail["scheduler_len"]), ("digest", tail["digest_len"]),
                         ("path", tail["path_len"])):
        tail[text] = blob[at : at + length]
        at += length
    jobs = results_io._BLOB_HEADER.unpack_from(blob)[2]
    tail["lengths"] = blob[at : at + 4 * jobs]
    tail["names"] = blob[at + 4 * jobs :]
    return tail


def _with_tail(blob: bytes, **changes) -> bytes:
    """``blob`` with tail fields or raw texts replaced.  A replaced text
    gets its own byte length in the tail unless that length is given."""
    tail = {**_tail_of(blob), **changes}
    for text in ("scheduler", "digest", "path", "names"):
        if f"{text}_len" not in changes:
            tail[f"{text}_len"] = len(tail[text])
    # A length taken below 0 wraps, as it would in the unsigned field.
    packed = results_io._BLOB_TAIL.pack(
        *(tail[field] % 2**64 if field.endswith("_len") else tail[field] for field in _TAIL_FIELDS)
    )
    texts = b"".join(tail[text] for text in ("scheduler", "digest", "path", "lengths", "names"))
    return blob[: _tail_at(blob)] + packed + texts


def _with_byte(blob: bytes, index: int, value: int) -> bytes:
    changed = bytearray(blob)
    changed[index] = value
    return bytes(changed)


def _name_lengths(*lengths: int) -> bytes:
    return struct.pack(f"<{len(lengths)}I", *lengths)


def _malformed_blobs(blob: bytes) -> dict:
    """Named corruptions of ``blob``: each must decode to ValueError.

    ``blob`` must hold at least two jobs, an ASCII scheduler name, job
    names and engine path, and no event digest (the fixture's run)."""
    header = results_io._BLOB_HEADER
    tail = _tail_of(blob)
    assert tail["nones"] == results_io._NO_DIGEST and tail["path"] and tail["names"]
    magic, version, jobs, records = header.unpack_from(blob)
    first, *middle, last = struct.unpack(f"<{jobs}I", tail["lengths"])
    cases = {f"truncated-{k}": blob[:k] for k in range(len(blob))}
    for i in range(header.size):
        cases[f"header-byte-{i}"] = _with_byte(blob, i, blob[i] ^ 0xFF)
    cases["trailing-byte"] = blob + b"\x00"
    for delta in (-1, 1):
        body = blob[header.size :]
        cases[f"jobs{delta:+d}"] = header.pack(magic, version, jobs + delta, records) + body
        cases[f"records{delta:+d}"] = header.pack(magic, version, jobs, records + delta) + body
        for field in ("scheduler_len", "digest_len", "path_len", "names_len"):
            cases[f"{field}{delta:+d}"] = _with_tail(blob, **{field: tail[field] + delta})
        cases[f"first-name-length{delta:+d}"] = _with_tail(
            blob, lengths=_name_lengths((first + delta) % 2**32, *middle, last))
    cases["extra-name"] = _with_tail(
        blob, lengths=tail["lengths"] + _name_lengths(1), names=tail["names"] + b"x")
    cases["missing-name"] = _with_tail(blob, lengths=tail["lengths"][:-4])
    cases["names-not-utf8"] = _with_tail(blob, names=b"\xff" + tail["names"][1:])
    cases["names-cut-utf8"] = _with_tail(
        blob, lengths=_name_lengths(first, *middle, last + 1), names=tail["names"] + b"\xc3")
    cases["scheduler-not-utf8"] = _with_tail(blob, scheduler=b"\xff" + tail["scheduler"][1:])
    cases["path-not-utf8"] = _with_tail(blob, path=b"\xed\xa0")
    cases["digest-not-utf8"] = _with_tail(blob, nones=0, digest=b"ab\x80")
    cases["none-bits-4"] = _with_tail(blob, nones=4)
    cases["none-bits-255"] = _with_tail(blob, nones=255)
    cases["no-digest-with-digest"] = _with_tail(blob, digest=b"ab")
    cases["no-path-with-path"] = _with_tail(blob, nones=results_io._NO_DIGEST | results_io._NO_PATH)
    cases["flag-2"] = _with_byte(blob, _tail_at(blob) - 1, 2)
    cases["job-flag-2"] = _with_byte(blob, _tail_at(blob) - 4 * (jobs + records), 2)
    return cases


class TestMalformedBlob:
    """A packed payload that is not ``result_to_bytes`` output fails as
    ValueError only (no struct.error, IndexError, UnicodeDecodeError or
    JSONDecodeError), and a cache row holding one is a miss."""

    def test_each_case_raises_plain_value_error(self, result):
        cases = _malformed_blobs(result_to_bytes(result))
        assert len(cases) > 100
        for name, blob in cases.items():
            with pytest.raises(ValueError) as info:
                result_from_bytes(blob)
            assert info.type is ValueError, (name, info.type)

    def test_cache_drops_each_blob_row_as_a_miss(self, result):
        cases = _malformed_blobs(result_to_bytes(result))
        with ResultCache() as cache:
            for blob in cases.values():
                cache.put("k", result)
                cache._conn.execute(
                    "UPDATE results SET payload = ? WHERE key = ?", (blob, "k")
                )
                assert cache.get("k") is None
                assert not cache.contains("k")
            assert cache.stats.misses == len(cases) and cache.stats.hits == 0

    def test_cache_stores_blobs_that_hit(self, result):
        with ResultCache() as cache:
            cache.put("k", result)
            (payload,) = cache._conn.execute("SELECT payload FROM results").fetchone()
            assert isinstance(payload, bytes) and payload == result_to_bytes(result)
            assert cache.get("k") == result

    def test_pool_results_equal_the_serial_run(self):
        trace, task = _v2_fixture_replay()
        tasks = [
            task,
            SimTask("t", SchedulerSpec(kind="registry", name="fifo"), ClusterConfig(4, 2), 0.05,
                    record_tasks=True),
        ]
        serial = simulate_many({"t": trace}, tasks)
        pooled = simulate_many({"t": trace}, tasks, workers=2)
        for s, p in zip(serial, pooled):
            assert p.result.task_records and p.result.jobs
            assert p.result.jobs == s.result.jobs
            assert p.result.task_records == s.result.task_records
            assert p.result.event_digest == s.result.event_digest
            assert p.result.makespan == s.result.makespan


def _version_1_blob(result: SimulationResult) -> bytes:
    """``result`` in packed layout version 1: the same blocks behind a
    32-byte header that ends in the head's length, then a JSON head."""
    blob = result_to_bytes(result)
    head = json.dumps(
        {
            "scheduler": result.scheduler_name,
            "makespan": result.makespan,
            "events_processed": result.events_processed,
            "wall_clock_seconds": result.wall_clock_seconds,
            "event_digest": result.event_digest,
            "engine_path": result.engine_path,
            "names": [job.name for job in result.jobs],
        },
        separators=(",", ":"),
    ).encode("ascii")
    _, _, jobs, records = results_io._BLOB_HEADER.unpack_from(blob)
    header = struct.pack("<6sHQQQ", results_io._BLOB_MAGIC, 1, jobs, records, len(head))
    return header + blob[results_io._BLOB_HEADER.size : _tail_at(blob)] + head


class TestLayoutVersion1:
    """Rows packed in layout version 1 (a JSON head) no longer decode:
    each is a miss that the cache drops and the next run re-stores."""

    def test_raises_value_error(self, result):
        with pytest.raises(ValueError, match="layout version 1"):
            result_from_bytes(_version_1_blob(result))

    def test_cache_row_is_a_miss_and_dropped(self, result):
        with ResultCache() as cache:
            cache.put("k", result)
            cache._conn.execute("UPDATE results SET payload = ? WHERE key = ?",
                                (_version_1_blob(result), "k"))
            assert cache.get("k") is None
            assert (cache.stats.hits, cache.stats.misses) == (0, 1)
            assert not cache.contains("k")

    def test_warm_run_reruns_only_that_cell(self, tmp_path):
        trace, task = _v2_fixture_replay()
        tasks = [task, SimTask("t", SchedulerSpec(name="fifo"), ClusterConfig(4, 2), 0.05)]
        path = tmp_path / "results.sqlite"
        cold = simulate_many({"t": trace}, tasks, cache=path)
        with ResultCache(path) as cache:
            cache._conn.execute("UPDATE results SET payload = ? WHERE key = ?",
                                (_version_1_blob(cold[0].result), cold[0].key))
            cache._conn.commit()
            warm = simulate_many({"t": trace}, tasks, cache=cache)
            assert [o.cached for o in warm] == [False, True]
            assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (1, 1, 1)
            (payload,) = cache._conn.execute(
                "SELECT payload FROM results WHERE key = ?", (cold[0].key,)).fetchone()
        assert payload == result_to_bytes(warm[0].result)
        assert [o.result.event_digest for o in warm] == [o.result.event_digest for o in cold]


def _names_result(names) -> SimulationResult:
    return SimulationResult(
        "names",
        [JobResult(i, name, 0.0, None, None, None, None, 1, 0) for i, name in enumerate(names)],
        [], 0.0, 0, 0.0,
    )


class TestPackedNames:
    """Job names travel as one UTF-8 text and a code-point length each;
    the list is split out only when a reader asks for names."""

    @pytest.mark.parametrize(
        "names",
        [[], [""], ["", "", ""], ["\x00"], ["a\x00", "\x00b", ""], ["\ud800"],
         ["x\udfff", "\ud83d\ude00"], ["é" * 300, "\U0001f600"]],
        ids=["no-jobs", "empty", "all-empty", "nul", "nuls", "lone-surrogate", "surrogates",
             "wide"],
    )
    def test_round_trip(self, names):
        result = _names_result(names)
        blob = result_to_bytes(result)
        rebuilt = result_from_bytes(blob)
        assert [job.name for job in rebuilt.jobs] == names
        assert len(rebuilt) == len(names)
        assert result_to_bytes(result_from_bytes(blob)) == blob
        assert rebuilt == result

    def test_decode_builds_no_name_list(self, result, monkeypatch):
        from repro.core import results

        split = results._split_names
        calls = []

        def counting_split(lengths, names):
            calls.append(names)
            return split(lengths, names)

        monkeypatch.setattr(results, "_split_names", counting_split)
        blob = result_to_bytes(result)
        rebuilt = result_from_bytes(blob)
        assert result_to_bytes(rebuilt) == blob
        rebuilt.relative_deadline_exceeded()
        rebuilt.job_columns.durations()
        assert len(rebuilt) == len(result)
        assert calls == []
        assert [job.name for job in rebuilt.jobs] == [job.name for job in result.jobs]
        jobs_to_csv(rebuilt)
        result_to_dict(rebuilt)
        assert len(calls) == 1

    def test_non_string_name_raises_value_error(self):
        with pytest.raises(ValueError):
            result_to_bytes(_names_result(["a", 5]))


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
