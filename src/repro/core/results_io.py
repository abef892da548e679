"""Serialization of simulation results — the paper's "output log".

Figure 4's data flow ends with the Simulator Engine producing an output
log.  This module writes a :class:`~repro.core.results.SimulationResult`
as a JSON document (reloadable; the optional debug event log is not
persisted) or a CSV job table (for spreadsheets/pandas), and reads the
JSON back.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import Any

from .job import TaskRecord
from .results import JobResult, SimulationResult

__all__ = [
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result",
    "jobs_to_csv",
]

# Version 2 added the optional ``event_digest`` fingerprint (needed for
# faithful cache restores in :mod:`repro.parallel`); version-1 documents
# are still readable — they simply carry no digest.  The optional
# ``engine_path`` accounting key rides on version 2 (readers default it
# to None), so older readers and pinned documents stay valid; a
# ``fallback_reason`` key in older documents is ignored.
_FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, 2)


def result_to_dict(result: SimulationResult) -> dict[str, Any]:
    """JSON-serializable document for a full simulation result.

    The document is lossless for everything the engine reports:
    scheduler name, makespan, the engine statistics (``events_processed``, ``wall_clock_seconds``),
    the event-stream digest, per-job results and task records all
    round-trip exactly through :func:`result_from_dict` (pinned by
    ``tests/test_results_io.py``) — which is what lets the parallel
    sweep cache restore a stored run as if it had just executed.
    """
    return {
        "format_version": _FORMAT_VERSION,
        "scheduler": result.scheduler_name,
        "makespan": result.makespan,
        "events_processed": result.events_processed,
        "wall_clock_seconds": result.wall_clock_seconds,
        "event_digest": result.event_digest,
        "engine_path": result.engine_path,
        "jobs": [
            {
                "job_id": j.job_id,
                "name": j.name,
                "submit_time": j.submit_time,
                "start_time": j.start_time,
                "map_stage_end": j.map_stage_end,
                "completion_time": j.completion_time,
                "deadline": j.deadline,
                "num_maps": j.num_maps,
                "num_reduces": j.num_reduces,
            }
            for j in result.jobs
        ],
        "task_records": [
            {
                "kind": r.kind,
                "job_id": r.job_id,
                "index": r.index,
                "start": r.start,
                "end": None if math.isinf(r.end) else r.end,
                "shuffle_end": r.shuffle_end,
                "first_wave": r.first_wave,
                "killed": r.killed,
            }
            for r in result.task_records
        ],
    }


def result_from_dict(data: dict[str, Any]) -> SimulationResult:
    """Rebuild a result from :func:`result_to_dict` output."""
    version = data.get("format_version")
    if version not in _READABLE_VERSIONS:
        raise ValueError(
            f"unsupported result format version {version!r} "
            f"(readable: {', '.join(map(str, _READABLE_VERSIONS))})"
        )
    jobs = [
        JobResult(
            job_id=j["job_id"],
            name=j["name"],
            submit_time=j["submit_time"],
            start_time=j["start_time"],
            map_stage_end=j["map_stage_end"],
            completion_time=j["completion_time"],
            deadline=j["deadline"],
            num_maps=j["num_maps"],
            num_reduces=j["num_reduces"],
        )
        for j in data["jobs"]
    ]
    records = [
        TaskRecord(
            kind=r["kind"],
            job_id=r["job_id"],
            index=r["index"],
            start=r["start"],
            end=math.inf if r["end"] is None else r["end"],
            shuffle_end=r["shuffle_end"],
            first_wave=r["first_wave"],
            killed=r.get("killed", False),
        )
        for r in data["task_records"]
    ]
    return SimulationResult(
        scheduler_name=data["scheduler"],
        jobs=jobs,
        task_records=records,
        makespan=data["makespan"],
        events_processed=data["events_processed"],
        wall_clock_seconds=data["wall_clock_seconds"],
        event_digest=data.get("event_digest"),
        engine_path=data.get("engine_path"),
    )


def save_result(result: SimulationResult, path: str | Path) -> None:
    """Write the output log as JSON."""
    Path(path).write_text(json.dumps(result_to_dict(result)))


def load_result(path: str | Path) -> SimulationResult:
    """Read an output log written by :func:`save_result`."""
    return result_from_dict(json.loads(Path(path).read_text()))


def jobs_to_csv(result: SimulationResult) -> str:
    """The per-job table as CSV text (header + one row per job)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        [
            "job_id",
            "name",
            "submit_time",
            "start_time",
            "map_stage_end",
            "completion_time",
            "duration",
            "deadline",
            "met_deadline",
            "num_maps",
            "num_reduces",
        ]
    )
    for j in result.jobs:
        writer.writerow(
            [
                j.job_id,
                j.name,
                j.submit_time,
                j.start_time,
                j.map_stage_end,
                j.completion_time,
                j.duration,
                j.deadline,
                j.met_deadline,
                j.num_maps,
                j.num_reduces,
            ]
        )
    return buf.getvalue()
