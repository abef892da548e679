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
        return JobProfile(
            name=data["name"],
            num_maps=int(data["num_maps"]),
            num_reduces=int(data["num_reduces"]),
            map_durations=np.asarray(data["map_durations"], dtype=np.float64),
            first_shuffle_durations=np.asarray(
                data["first_shuffle_durations"], dtype=np.float64
            ),
            typical_shuffle_durations=np.asarray(
                data["typical_shuffle_durations"], dtype=np.float64
            ),
            reduce_durations=np.asarray(data["reduce_durations"], dtype=np.float64),
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


def trace_from_dict(data: dict[str, Any]) -> list[TraceJob]:
    """Rebuild a trace from :func:`trace_to_dict` output.

    Raises ``ValueError`` on a bad field, including a ``depends_on``
    edge that is out of range, points at its own job or closes a cycle.
    """
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trace schema version {version!r} (expected {SCHEMA_VERSION})"
        )
    jobs = []
    for entry in data["jobs"]:
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
    validate_dependencies(jobs)
    return jobs


def save_trace(trace: Sequence[TraceJob], path: str | Path) -> None:
    """Write a trace to a JSON file."""
    Path(path).write_text(json.dumps(trace_to_dict(trace)))


def load_trace(path: str | Path) -> list[TraceJob]:
    """Read a trace from a JSON file written by :func:`save_trace`."""
    return trace_from_dict(json.loads(Path(path).read_text()))
