"""JSON serialization of job profiles and traces.

The trace format is deliberately plain: a versioned JSON document a user
can inspect, diff, and hand-edit for what-if studies.  The same dicts are
what :class:`~repro.trace.database.TraceDatabase` persists.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from ..core.job import JobProfile, TraceJob, validate_dependencies

__all__ = [
    "SCHEMA_VERSION",
    "profile_to_dict",
    "profile_from_dict",
    "trace_to_dict",
    "trace_from_dict",
    "save_trace",
    "load_trace",
]

SCHEMA_VERSION = 1


def profile_to_dict(profile: JobProfile) -> dict[str, Any]:
    """JSON-serializable dict of a job template."""
    return {
        "name": profile.name,
        "num_maps": profile.num_maps,
        "num_reduces": profile.num_reduces,
        "map_durations": profile.map_durations.tolist(),
        "first_shuffle_durations": profile.first_shuffle_durations.tolist(),
        "typical_shuffle_durations": profile.typical_shuffle_durations.tolist(),
        "reduce_durations": profile.reduce_durations.tolist(),
    }


def profile_from_dict(data: dict[str, Any]) -> JobProfile:
    """Rebuild a :class:`JobProfile` from :func:`profile_to_dict` output."""
    try:
        name = data["name"]
        if not isinstance(name, str):
            raise ValueError(f"profile field 'name' must be a string, not {type(name).__name__}")
        # JobProfile converts each list into its own read-only array.
        return JobProfile(
            name=name,
            num_maps=int(data["num_maps"]),
            num_reduces=int(data["num_reduces"]),
            map_durations=data["map_durations"],
            first_shuffle_durations=data["first_shuffle_durations"],
            typical_shuffle_durations=data["typical_shuffle_durations"],
            reduce_durations=data["reduce_durations"],
        )
    except KeyError as exc:
        raise ValueError(f"profile dict missing required field {exc}") from None


def trace_to_dict(trace: Sequence[TraceJob]) -> dict[str, Any]:
    """JSON-serializable document for a full replayable trace."""
    return {
        "schema_version": SCHEMA_VERSION,
        "jobs": [
            {
                "submit_time": job.submit_time,
                "deadline": job.deadline,
                "depends_on": job.depends_on,
                "profile": profile_to_dict(job.profile),
            }
            for job in trace
        ],
    }


def trace_from_dict(data: Any) -> list[TraceJob]:
    """Rebuild a trace from :func:`trace_to_dict` output.

    Raises only ``ValueError``, naming the field at fault: a document
    that is not an object, a ``jobs`` that is not a list, a missing or
    mistyped field, or a ``depends_on`` edge that is out of range,
    points at its own job or closes a cycle.
    """
    if not isinstance(data, dict):
        raise ValueError(f"trace document must be an object, not {type(data).__name__}")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trace schema version {version!r} (expected {SCHEMA_VERSION})"
        )
    entries = data.get("jobs")
    if not isinstance(entries, list):
        raise ValueError(f"trace field 'jobs' must be a list, not {type(entries).__name__}")
    jobs: list[TraceJob] = []
    try:
        for entry in entries:
            jobs.append(
                TraceJob(
                    profile=profile_from_dict(entry["profile"]),
                    submit_time=float(entry["submit_time"]),
                    deadline=None if entry.get("deadline") is None else float(entry["deadline"]),
                    depends_on=(
                        None if entry.get("depends_on") is None else int(entry["depends_on"])
                    ),
                )
            )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        index = len(jobs)
        raise ValueError(f"trace jobs[{index}]: {_job_error(entries[index], exc)}") from None
    validate_dependencies(jobs)
    return jobs


def _float_array(values: Any) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


#: Every field the job decode converts, in decode order, as (inside the
#: profile, key, conversion); only the error path reads it.
_CONVERTED_FIELDS = (
    (True, "num_maps", int),
    (True, "num_reduces", int),
    (True, "map_durations", _float_array),
    (True, "first_shuffle_durations", _float_array),
    (True, "typical_shuffle_durations", _float_array),
    (True, "reduce_durations", _float_array),
    (False, "submit_time", float),
    (False, "deadline", lambda v: None if v is None else float(v)),
    (False, "depends_on", lambda v: None if v is None else int(v)),
)


def _job_error(entry: Any, exc: Exception) -> str:
    """Name the field of one job entry whose decode raised ``exc``.

    The decode runs under one ``try``, so it does not know which field
    failed; this re-runs the conversions one field at a time.  A
    failure no conversion explains came from a constructor's own
    check, whose message already names its field.
    """
    if isinstance(exc, KeyError):
        return f"missing field {exc}"
    if not isinstance(entry, dict):
        return f"job entry must be an object, not {type(entry).__name__}"
    profile = entry["profile"]
    if not isinstance(profile, dict):
        return f"field 'profile' must be an object, not {type(profile).__name__}"
    for in_profile, key, convert in _CONVERTED_FIELDS:
        owner = profile if in_profile else entry
        if key not in owner:
            continue  # profile_from_dict names a missing profile key
        try:
            convert(owner[key])
        except (TypeError, ValueError, OverflowError) as bad:
            where = f"profile.{key}" if in_profile else key
            return f"field {where!r}: {bad}"
    return str(exc)


def save_trace(trace: Sequence[TraceJob], path: str | Path) -> None:
    """Write a trace to a JSON file."""
    Path(path).write_text(json.dumps(trace_to_dict(trace)))


def load_trace(path: str | Path) -> list[TraceJob]:
    """Read a trace from a JSON file written by :func:`save_trace`."""
    return trace_from_dict(json.loads(Path(path).read_text()))
