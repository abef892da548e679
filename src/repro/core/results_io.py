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

Decoding then parses a few long lists, which the result keeps as its
columns (:class:`~repro.core.results.JobColumns`,
:class:`~repro.core.results.RecordColumns`); the objects are built by
position only when a reader asks for them.  The JSON document is the
format for people and for HTTP:
the service reply, :func:`save_result`/:func:`load_result` and
``simmr replay --output`` go through :func:`result_to_dict` and
:func:`result_from_dict`.  Version 1 and 2 documents, which hold one
object per job and per record, are still read.

Results that never leave the machine travel as packed bytes instead:
:func:`result_to_bytes` writes fixed-width little-endian column blocks
behind a small header, then a fixed ``struct`` tail with the run's
scalars and byte lengths, the few strings, and the job names as one
UTF-8 text.  :func:`result_from_bytes` reads each block with one
``numpy.frombuffer`` call and each string with one decode, so a hit
parses no JSON and no number as text.  The blocks are the ones a
result's columns hold: the writer writes them as they are, and the
reader hands its read-only views and the names text to the result, so
a cache hit builds no Python object per job or record, not even the
list of names, until a reader asks for one.  The result cache stores these
bytes, and pool workers hand results back in them.  Both file layouts
are private to this module.
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct
from pathlib import Path
from typing import Any

import numpy as np

from .results import JobColumns, RecordColumns, SimulationResult

__all__ = [
    "result_to_dict",
    "result_from_dict",
    "result_to_bytes",
    "result_from_bytes",
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
_JOB_FIELDS = JobColumns.FIELDS
_RECORD_FIELDS = RecordColumns.FIELDS
_RECORD_END = _RECORD_FIELDS.index("end")


def _checked_columns(
    columns: Any, section: str, names: tuple[str, ...]
) -> list[list[Any]]:
    """Copies of the columns of a version-3 ``section``, in ``names``
    order (the result keeps them; the document stays the caller's).

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
        ordered.append(list(column))
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
    # Copies: the document is the caller's to change, the columns are not.
    jobs = dict(zip(_JOB_FIELDS, map(list, result.job_columns.values())))
    records = dict(zip(_RECORD_FIELDS, map(list, result.record_columns.values())))
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
        "jobs": jobs,
        "task_records": records,
    }


def result_from_dict(data: dict[str, Any]) -> SimulationResult:
    """Rebuild a result from :func:`result_to_dict` output (any readable
    version).  A malformed version-3 column raises ValueError naming it,
    as does a document that is not an object."""
    if not isinstance(data, dict):
        raise ValueError(f"a result document must be an object, not {type(data).__name__}")
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
        jobs=JobColumns(values=job_columns),
        task_records=RecordColumns(values=record_columns),
        makespan=data["makespan"],
        events_processed=data["events_processed"],
        wall_clock_seconds=data["wall_clock_seconds"],
        event_digest=data.get("event_digest"),
        engine_path=data.get("engine_path"),
    )


# -- packed bytes (the result cache and the pool hand-off) -------------------

#: Magic, layout version, job count, record count.
_BLOB_HEADER = struct.Struct("<6sHQQ")
_BLOB_MAGIC = b"SIMMRR"
_BLOB_VERSION = 2
#: Bytes per job (three ``<i8``, five ``<f8``, four ``u1`` null flags)
#: and per record (two ``<i8``, three ``<f8``, four ``u1`` flags).
_JOB_BYTES = 3 * 8 + 5 * 8 + 4
_RECORD_BYTES = 2 * 8 + 3 * 8 + 4
#: Makespan, wall-clock seconds, events processed, the None bits
#: (``_NO_DIGEST``, ``_NO_PATH``), and the UTF-8 byte lengths of the
#: scheduler, event digest, engine path and job names.
_BLOB_TAIL = struct.Struct("<ddqBQQQQ")
_NO_DIGEST = 1
_NO_PATH = 2


def _utf8(text: str) -> bytes:
    """``text`` as UTF-8; a lone surrogate (a name read from JSON may
    hold one) is kept as its three-byte form."""
    return text.encode("utf-8", "surrogatepass")


def _from_utf8(raw: bytes) -> str:
    """The text :func:`_utf8` wrote as ``raw``."""
    return raw.decode("utf-8", "surrogatepass")


def result_to_bytes(result: SimulationResult) -> bytes:
    """``result`` as packed little-endian columns: the machine-local
    twin of :func:`result_to_dict`, read back by :func:`result_from_bytes`.

    Layout, in byte order: the 24-byte header (magic ``SIMMRR``, layout
    version 2, job count ``n``, record count ``m``); the jobs' ``<i8``
    block (job_id, num_maps, num_reduces) and ``<f8`` block
    (submit_time, start_time, map_stage_end, completion_time, deadline);
    the records' ``<i8`` block (job_id, index) and ``<f8`` block (start,
    end, shuffle_end); the jobs' ``u1`` block (1 where each optional time
    is None); the records' ``u1`` block (kind 0 map / 1 reduce,
    shuffle_end is None, first_wave, killed); the 57-byte tail
    (``<f8`` makespan and wall_clock_seconds, ``<i8`` events_processed,
    a ``u1`` with bit 0 set where event_digest is None and bit 1 where
    engine_path is None, then four ``<u8`` byte lengths); the scheduler,
    event digest and engine path as UTF-8; a ``<u4`` code-point length
    per job name; and the job names as one UTF-8 text.  Each block
    holds its fields one after another, ``n`` or ``m`` values each: they
    are the blocks of :class:`~repro.core.results.JobColumns` and
    :class:`~repro.core.results.RecordColumns`, written as they are.
    Floats are their raw bytes (a running attempt's ``end`` is ``inf``;
    a None time is 0.0 under its flag), so they round-trip bit for bit;
    the makespan and wall-clock seconds are stored as floats too.  Text
    is UTF-8 with lone surrogates kept (``surrogatepass``).  Integers
    outside ``<i8``, a non-string job name or a kind other than
    map/reduce raise ValueError.
    """
    job_ints, job_floats, job_nulls, name_lengths, names = result.job_columns.blocks()
    record_ints, record_floats, record_flags = result.record_columns.blocks()
    digest, path = result.event_digest, result.engine_path
    texts = [
        _utf8(result.scheduler_name),
        b"" if digest is None else _utf8(digest),
        b"" if path is None else _utf8(path),
        _utf8(names),
    ]
    nones = (_NO_DIGEST if digest is None else 0) | (_NO_PATH if path is None else 0)
    try:
        tail = _BLOB_TAIL.pack(
            result.makespan,
            result.wall_clock_seconds,
            result.events_processed,
            nones,
            *map(len, texts),
        )
    except struct.error as exc:
        raise ValueError(f"result does not fit the packed layout: {exc}") from None
    return b"".join(
        (
            _BLOB_HEADER.pack(
                _BLOB_MAGIC, _BLOB_VERSION, len(name_lengths), record_ints.shape[1]
            ),
            job_ints.astype("<i8", copy=False).tobytes(),
            job_floats.astype("<f8", copy=False).tobytes(),
            record_ints.astype("<i8", copy=False).tobytes(),
            record_floats.astype("<f8", copy=False).tobytes(),
            job_nulls.tobytes(),
            record_flags.tobytes(),
            tail,
            *texts[:3],
            name_lengths.astype("<u4", copy=False).tobytes(),
            texts[3],
        )
    )


def result_from_bytes(blob: bytes) -> SimulationResult:
    """Rebuild a result from :func:`result_to_bytes` output.

    The result's columns are read-only numpy views of ``blob`` and the
    job names stay one string: nothing is converted to Python objects
    per job or record until a reader asks for them.  Every check runs
    here, in a fixed number of calls whatever the size: any blob that
    is not such output (wrong magic or version, a length that disagrees
    with the blob's size or with the names text, flags other than 0/1,
    None bits that are unknown or name a present string, text that is
    not UTF-8) raises ValueError and nothing else.
    """
    size = len(blob)
    if size < _BLOB_HEADER.size:
        raise ValueError(f"packed result is {size} bytes, shorter than its header")
    magic, version, n, m = _BLOB_HEADER.unpack_from(blob)
    if magic != _BLOB_MAGIC:
        raise ValueError(f"not a packed result (magic {magic!r})")
    if version != _BLOB_VERSION:
        raise ValueError(f"unsupported packed result layout version {version}")
    offset = _BLOB_HEADER.size + n * _JOB_BYTES + m * _RECORD_BYTES
    if size < offset + _BLOB_TAIL.size:
        raise ValueError(
            f"packed result is {size} bytes, its header says at least {offset + _BLOB_TAIL.size}"
        )
    makespan, wall, events, nones, *lengths = _BLOB_TAIL.unpack_from(blob, offset)
    scheduler_len, digest_len, path_len, names_len = lengths
    text_at = offset + _BLOB_TAIL.size
    expected = text_at + scheduler_len + digest_len + path_len + 4 * n + names_len
    if size != expected:
        raise ValueError(f"packed result is {size} bytes, its header and tail say {expected}")
    if nones > _NO_DIGEST | _NO_PATH or (nones & _NO_DIGEST and digest_len) or (
        nones & _NO_PATH and path_len
    ):
        raise ValueError(f"packed result None bits {nones} do not fit its lengths")
    digest_at = text_at + scheduler_len
    path_at = digest_at + digest_len
    lengths_at = path_at + path_len
    try:
        scheduler = _from_utf8(blob[text_at:digest_at])
        digest = _from_utf8(blob[digest_at:path_at])
        path = _from_utf8(blob[path_at:lengths_at])
        names = _from_utf8(blob[lengths_at + 4 * n :])
    except UnicodeDecodeError:
        raise ValueError("packed result text is not UTF-8") from None
    name_lengths = np.frombuffer(blob, "<u4", n, lengths_at)
    if name_lengths.sum() != len(names):
        raise ValueError("packed result name lengths do not add up to its names text")
    at = _BLOB_HEADER.size
    job_ints = np.frombuffer(blob, "<i8", 3 * n, at).reshape(3, n)
    at += 24 * n
    job_floats = np.frombuffer(blob, "<f8", 5 * n, at).reshape(5, n)
    at += 40 * n
    record_ints = np.frombuffer(blob, "<i8", 2 * m, at).reshape(2, m)
    at += 16 * m
    record_floats = np.frombuffer(blob, "<f8", 3 * m, at).reshape(3, m)
    at += 24 * m
    flags = np.frombuffer(blob, np.uint8, 4 * (n + m), at)
    if (flags > 1).any():
        raise ValueError("packed result flag is neither 0 nor 1")
    job_nulls = flags[: 4 * n].view(bool).reshape(4, n)
    return SimulationResult(
        scheduler_name=scheduler,
        jobs=JobColumns(blocks=(job_ints, job_floats, job_nulls, name_lengths, names)),
        task_records=RecordColumns(
            blocks=(record_ints, record_floats, flags[4 * n :].reshape(4, m))
        ),
        makespan=makespan,
        events_processed=events,
        wall_clock_seconds=wall,
        event_digest=None if nones & _NO_DIGEST else digest,
        engine_path=None if nones & _NO_PATH else path,
    )


def save_result(result: SimulationResult, path: str | Path) -> None:
    """Write the output log as JSON."""
    Path(path).write_text(json.dumps(result_to_dict(result)))


def load_result(path: str | Path) -> SimulationResult:
    """Read an output log written by :func:`save_result`."""
    return result_from_dict(json.loads(Path(path).read_text()))


def jobs_to_csv(result: SimulationResult) -> str:
    """The per-job table as CSV text (header + one row per job).

    ``duration`` and ``met_deadline`` are those of
    :class:`~repro.core.results.JobResult`, computed from the columns."""
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
    writer.writerows(
        [
            job_id,
            name,
            submit,
            start,
            map_end,
            completion,
            None if completion is None else completion - submit,
            deadline,
            None if deadline is None or completion is None else completion <= deadline,
            num_maps,
            num_reduces,
        ]
        for job_id, name, submit, start, map_end, completion, deadline, num_maps, num_reduces
        in zip(*result.job_columns.values())
    )
    return buf.getvalue()
