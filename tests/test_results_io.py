"""Tests for output-log serialization (JSON + CSV) and the Rumen loader."""

from __future__ import annotations

import pytest

from repro.core import ClusterConfig, TraceJob, simulate
from repro.core.results_io import (
    jobs_to_csv,
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.mumak import dumps_rumen, loads_rumen
from repro.schedulers import FIFOScheduler

from conftest import make_constant_profile


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
        """Pre-event-digest files (format v1) still load."""
        doc = result_to_dict(result)
        doc["format_version"] = 1
        del doc["event_digest"]
        rebuilt = result_from_dict(doc)
        assert rebuilt.event_digest is None
        assert rebuilt.makespan == result.makespan

    def test_ignores_fallback_reason_of_older_documents(self, result):
        """Cache entries written while the kernel still delegated to the
        object engine carry a ``fallback_reason`` key; it is ignored."""
        doc = result_to_dict(result)
        assert "fallback_reason" not in doc
        rebuilt = result_from_dict({**doc, "fallback_reason": "pluggable shuffle model"})
        assert rebuilt == result_from_dict(doc)


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
