"""Serialization of simulation results — the paper's "output log".

Figure 4's data flow ends with the Simulator Engine producing an output
log.  This module writes a :class:`~repro.core.results.SimulationResult`
as a JSON document (reloadable; the optional debug event log is not
persisted) or a CSV job table (for spreadsheets/pandas), and reads the
JSON back.

The document (``format_version`` 3) stores ``jobs`` and
``task_records`` column-wise: one list per field, so a 120-job result
is nine lists rather than 120 nine-key objects::

    {"format_version": 3, "scheduler": "FIFO", "makespan": 1248.3, ...,
     "jobs": {"job_id": [0, 1], "name": ["a", "b"], ...},
     "task_records": {"kind": ["map", "reduce"], "job_id": [0, 0], ...}}

Decoding then parses a few long lists and builds the objects by
position.  The layout is private to this module: the result cache, the
executor's pool hand-off, the service reply and ``simmr replay
--output`` all go through :func:`result_to_dict` and
:func:`result_from_dict`.  Version 1 and 2 documents, which hold one
object per job and per record, are still read.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import fields
from operator import attrgetter
from pathlib import Path
from typing import Any

from .job import TaskRecord
from .results import JobResult, SimulationResult, job_results

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
# ``fallback_reason`` key in older documents is ignored.  Version 3
# stores ``jobs`` and ``task_records`` as columns instead of rows.
_FORMAT_VERSION = 3
_READABLE_VERSIONS = (1, 2, 3)

#: Column names, in constructor order: the readers build by position.
_JOB_FIELDS = tuple(f.name for f in fields(JobResult))
_RECORD_FIELDS = tuple(f.name for f in fields(TaskRecord))
_RECORD_END = _RECORD_FIELDS.index("end")


def _to_columns(rows: list[Any], names: tuple[str, ...]) -> dict[str, list[Any]]:
    """``{name: [row.name for row in rows]}`` for every field name."""
    if not rows:
        return {name: [] for name in names}
    return dict(zip(names, map(list, zip(*map(attrgetter(*names), rows)))))


def _checked_columns(
    columns: Any, section: str, names: tuple[str, ...]
) -> list[list[Any]]:
    """The columns of a version-3 ``section``, in ``names`` order.

    Raises ValueError naming the field when ``section`` is not an object
    of columns, a column is missing or not a list, or the columns differ
    in length (building by position would silently drop the surplus).
    """
    if not isinstance(columns, dict):
        raise ValueError(f"result field {section!r} must be an object of columns")
    ordered = []
    for name in names:
        if name not in columns:
            raise ValueError(f"result field '{section}.{name}' is missing")
        column = columns[name]
        if not isinstance(column, list):
            raise ValueError(f"result field '{section}.{name}' must be a list")
        ordered.append(column)
    length = len(ordered[0])
    for name, column in zip(names, ordered):
        if len(column) != length:
            raise ValueError(
                f"result field '{section}.{name}' has {len(column)} entries, "
                f"but '{section}.{names[0]}' has {length}"
            )
    return ordered


def _row_columns(rows: list[dict[str, Any]], names: tuple[str, ...]) -> list[list[Any]]:
    """The columns of a version-1/2 list of row objects, in ``names`` order.

    ``killed`` is optional in rows: records from before preemption lack it.
    """
    return [
        [row.get(name, False) for row in rows]
        if name == "killed"
        else [row[name] for row in rows]
        for name in names
    ]


def result_to_dict(result: SimulationResult) -> dict[str, Any]:
    """JSON-serializable document for a full simulation result.

    The document is lossless for everything the engine reports:
    scheduler name, makespan, the engine statistics (``events_processed``, ``wall_clock_seconds``),
    the event-stream digest, per-job results and task records all
    round-trip exactly through :func:`result_from_dict` (pinned by
    ``tests/test_results_io.py``) — which is what lets the parallel
    sweep cache restore a stored run as if it had just executed.
    """
    records = _to_columns(result.task_records, _RECORD_FIELDS)
    # JSON has no infinity: an attempt still running ends at None.
    records["end"] = [None if math.isinf(end) else end for end in records["end"]]
    return {
        "format_version": _FORMAT_VERSION,
        "scheduler": result.scheduler_name,
        "makespan": result.makespan,
        "events_processed": result.events_processed,
        "wall_clock_seconds": result.wall_clock_seconds,
        "event_digest": result.event_digest,
        "engine_path": result.engine_path,
        "jobs": _to_columns(result.jobs, _JOB_FIELDS),
        "task_records": records,
    }


def result_from_dict(data: dict[str, Any]) -> SimulationResult:
    """Rebuild a result from :func:`result_to_dict` output (any readable
    version).  A malformed version-3 column raises ValueError naming it."""
    version = data.get("format_version")
    if version not in _READABLE_VERSIONS:
        raise ValueError(
            f"unsupported result format version {version!r} "
            f"(readable: {', '.join(map(str, _READABLE_VERSIONS))})"
        )
    if version == 3:
        job_columns = _checked_columns(data["jobs"], "jobs", _JOB_FIELDS)
        record_columns = _checked_columns(data["task_records"], "task_records", _RECORD_FIELDS)
    else:
        job_columns = _row_columns(data["jobs"], _JOB_FIELDS)
        record_columns = _row_columns(data["task_records"], _RECORD_FIELDS)
    ends = record_columns[_RECORD_END]
    record_columns[_RECORD_END] = [math.inf if end is None else end for end in ends]
    return SimulationResult(
        scheduler_name=data["scheduler"],
        jobs=job_results(*job_columns),
        task_records=list(map(TaskRecord, *record_columns)),
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
