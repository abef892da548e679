"""The compact binary trace format (``.simmr``): parse once, map forever.

JSON traces (:mod:`repro.trace.schema`) are the human-facing format —
inspectable, diffable, hand-editable.  They are also the slow path: a
100k-duration trace costs a full JSON parse plus one Python float per
duration on every load.  This module defines the binary twin: a
versioned, little-endian, digest-stable container whose duration
payload is raw float64 — so loading is ``mmap`` + an O(jobs) header
walk, and the durations are *never* copied (the reconstructed
:class:`~repro.core.job.JobProfile` arrays are views into the mapped
file, via :class:`~repro.core.columns.TraceColumns`).

Layout (all integers little-endian, fixed-width, ``struct``-packed)::

    header   72 B   magic "SIMMRBIN", version u16, flags u16,
                    njobs u32, ndoubles u64, names_bytes u64,
                    reserved u64, trace_digest 32 B (ascii hex)
    jobs     120 B  per job: submit_time f64, deadline f64 (NaN=None),
                    depends_on i64 (-1=None), num_maps i64,
                    num_reduces i64, name (offset u64, length u64) into
                    the names blob, then 4 phase spans (offset u64,
                    length u64) in float64 units into the data section
    names    names_bytes B of UTF-8 (lone surrogates passed through, as
             JSON allows them), deduplicated, 8-byte padded
    data     ndoubles * 8 B of raw little-endian float64 durations,
             content-deduplicated, 8-byte aligned in the file

**Digest stability.**  The header records the trace's canonical
identity — :func:`repro.sanitize.digest.trace_digest`, BLAKE2b-16 over
a canonical byte layout of the jobs' logical content — so the same
trace has the same digest in every format and a loaded trace keys
caches exactly as its JSON twin would.  Version 3 is the current
version: its header digest hashes each job's 16-byte profile digest in
place of the raw durations.  Older headers hold retired digests and are
rejected with a hint to re-pack from the JSON trace: version 1 held the
JSON-text digest, version 2 the layout that hashed every duration.
Packing is deterministic: the same trace always
produces byte-identical files (dedup decisions depend only on content,
in job order).

**The header is never trusted.**  Every decode
(:func:`unpack_columns`, and through it the file and ``mmap`` paths
and the executor's spill files) recomputes the digest from the decoded
jobs and raises ``ValueError`` when it disagrees with the header, so a
flipped duration byte cannot load under a stale identity.  The check
decodes the jobs once more and digests them: a cold load of a 120-job,
~73k-duration trace takes ~16 ms instead of ~7 ms.  Downstream cache
keys further salt this digest with the cache schema and package version
(:func:`repro.parallel.cache.cache_key`), so a format change can never
resurrect stale results.

Only ``struct``/``array``/``mmap`` from the stdlib are used here; the
numpy views appear one layer up, in :mod:`repro.core.columns`.
"""

from __future__ import annotations

import mmap
import struct
from array import array
from pathlib import Path
from typing import Sequence, Union

from ..core.columns import TraceColumns
from ..core.job import TraceJob, validate_dependencies

__all__ = [
    "BINARY_MAGIC",
    "BINARY_VERSION",
    "pack_trace",
    "pack_columns",
    "unpack_columns",
    "packed_digest",
    "save_trace_bin",
    "load_columns",
    "load_trace_bin",
    "load_trace_auto",
    "is_packed",
    "is_binary_trace_file",
]

BINARY_MAGIC = b"SIMMRBIN"
BINARY_VERSION = 3

_HEADER = struct.Struct("<8sHHIQQQ32s")
_JOB = struct.Struct("<ddqqq" + "Q" * 10)
_HEADER_SIZE = _HEADER.size  # 72
_JOB_SIZE = _JOB.size  # 120

Buffer = Union[bytes, bytearray, memoryview]


def _pad8(n: int) -> int:
    return (8 - n % 8) % 8


# --------------------------------------------------------------------------- #
# packing
# --------------------------------------------------------------------------- #

def pack_columns(columns: TraceColumns, digest: str) -> bytes:
    """Serialize columnar storage into the binary container.

    ``digest`` is the trace's :func:`~repro.sanitize.digest.trace_digest`
    (32 hex chars); callers that start from job objects should use
    :func:`pack_trace`.  A wrong digest is not caught here but on every
    later decode.
    """
    if len(digest) != 32:
        raise ValueError(f"trace digest must be 32 hex chars, got {len(digest)}")
    njobs = len(columns)

    names_blob = bytearray()
    name_spans: dict[str, tuple[int, int]] = {}
    for name in columns.names:
        if name not in name_spans:
            encoded = name.encode("utf-8", "surrogatepass")
            name_spans[name] = (len(names_blob), len(encoded))
            names_blob += encoded
    names_blob += b"\x00" * _pad8(len(names_blob))

    data_view = memoryview(columns.data).cast("B")
    ndoubles = data_view.nbytes // 8

    out = bytearray()
    out += _HEADER.pack(
        BINARY_MAGIC,
        BINARY_VERSION,
        0,  # flags, reserved for future use
        njobs,
        ndoubles,
        len(names_blob),
        0,  # reserved
        digest.encode("ascii"),
    )
    for i in range(njobs):
        name_off, name_len = name_spans[columns.names[i]]
        spans = columns.spans[8 * i:8 * i + 8]
        out += _JOB.pack(
            columns.submit_times[i],
            columns.deadlines[i],
            columns.depends_on[i],
            columns.num_maps[i],
            columns.num_reduces[i],
            name_off,
            name_len,
            *spans,
        )
    out += names_blob
    out += data_view
    return bytes(out)


def pack_trace(trace: Sequence[TraceJob]) -> bytes:
    """Serialize a job-object trace into the binary container."""
    from ..sanitize.digest import trace_digest

    return pack_columns(TraceColumns.from_trace(trace), trace_digest(trace))


def save_trace_bin(trace: Sequence[TraceJob], path: "str | Path") -> int:
    """Write a binary trace file; returns the byte count written."""
    payload = pack_trace(trace)
    Path(path).write_bytes(payload)
    return len(payload)


# --------------------------------------------------------------------------- #
# unpacking
# --------------------------------------------------------------------------- #

def is_packed(data: Buffer) -> bool:
    """Whether ``data`` starts with the binary trace magic."""
    return bytes(memoryview(data)[:8]) == BINARY_MAGIC


def is_binary_trace_file(path: "str | Path") -> bool:
    """Sniff a file's first bytes for the binary trace magic."""
    try:
        with open(path, "rb") as fh:
            return fh.read(8) == BINARY_MAGIC
    except OSError:
        return False


def _parse_header(view: memoryview) -> tuple[int, int, int, str]:
    if view.nbytes < _HEADER_SIZE:
        raise ValueError("binary trace truncated: header incomplete")
    magic, version, _flags, njobs, ndoubles, names_bytes, _reserved, digest = (
        _HEADER.unpack_from(view, 0)
    )
    if magic != BINARY_MAGIC:
        raise ValueError("not a binary trace (bad magic)")
    if version in (1, 2):
        raise ValueError(
            f"binary trace version {version} carries a retired trace digest; "
            "re-pack it from its JSON trace (simmr trace pack)"
        )
    if version != BINARY_VERSION:
        raise ValueError(
            f"unsupported binary trace version {version} (expected {BINARY_VERSION})"
        )
    try:
        digest_hex = digest.decode("ascii")
        int(digest_hex, 16)
    except (UnicodeDecodeError, ValueError):
        raise ValueError("binary trace header carries a malformed digest") from None
    expected = _HEADER_SIZE + njobs * _JOB_SIZE + names_bytes + 8 * ndoubles
    if view.nbytes < expected:
        raise ValueError(
            f"binary trace truncated: {view.nbytes} bytes, header promises {expected}"
        )
    return njobs, ndoubles, names_bytes, digest_hex


def packed_digest(data: Buffer) -> str:
    """The trace digest recorded in a packed trace's header (unverified;
    :func:`unpack_columns` checks it against the content)."""
    _, _, _, digest = _parse_header(memoryview(data).cast("B"))
    return digest


def unpack_columns(
    data: Buffer, *, owner: object = None
) -> tuple[TraceColumns, str]:
    """Decode a packed trace into zero-copy columnar storage.

    Returns ``(columns, digest)`` where ``columns.data`` is a
    *memoryview into* ``data`` — no duration bytes are copied.  Pass
    ``owner`` to pin the object that must stay alive for the buffer to
    remain valid (an ``mmap``, say); it is stored on the returned
    columns.  Raises ``ValueError`` when the header
    digest does not match the decoded content, or when a ``depends_on``
    edge is out of range, points at its own job or closes a cycle.
    """
    view = memoryview(data).cast("B")
    njobs, ndoubles, names_bytes, digest = _parse_header(view)

    names_off = _HEADER_SIZE + njobs * _JOB_SIZE
    data_off = names_off + names_bytes
    names_view = view[names_off:names_off + names_bytes]
    duration_view = view[data_off:data_off + 8 * ndoubles]

    names: list[str] = []
    submit_times = array("d")
    deadlines = array("d")
    depends_on = array("q")
    num_maps = array("q")
    num_reduces = array("q")
    spans = array("Q")
    for record in _JOB.iter_unpack(view[_HEADER_SIZE:names_off]):
        submit, deadline, dep, n_maps, n_reduces, name_off, name_len = record[:7]
        job_spans = record[7:]
        raw_name = bytes(names_view[name_off:name_off + name_len])
        names.append(raw_name.decode("utf-8", "surrogatepass"))
        submit_times.append(submit)
        deadlines.append(deadline)
        depends_on.append(dep)
        num_maps.append(n_maps)
        num_reduces.append(n_reduces)
        for offset, length in zip(job_spans[0::2], job_spans[1::2]):
            if (offset + length) > ndoubles:
                raise ValueError("binary trace corrupt: phase span exceeds data section")
            spans.append(offset)
            spans.append(length)
    columns = TraceColumns(
        names=tuple(names),
        submit_times=submit_times,
        deadlines=deadlines,
        depends_on=depends_on,
        num_maps=num_maps,
        num_reduces=num_reduces,
        spans=spans,
        data=duration_view,
        owner=owner,
    )
    from ..sanitize.digest import trace_digest

    jobs = columns.jobs()
    if trace_digest(jobs) != digest:
        raise ValueError("binary trace corrupt: header digest does not match content")
    validate_dependencies(jobs)
    return columns, digest


class _MappedFile:
    """Keeps an ``mmap`` (and nothing else) alive for trace views."""

    __slots__ = ("map",)

    def __init__(self, path: Path) -> None:
        with open(path, "rb") as fh:
            self.map = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)


def load_columns(path: "str | Path") -> tuple[TraceColumns, str]:
    """Load a binary trace file into columnar storage.

    The file is memory-mapped read-only and the returned columns view
    it directly: the parse cost is the header walk, the durations stay
    on disk until touched, and concurrent loaders of the same file
    share page-cache memory.
    """
    owner = _MappedFile(Path(path))
    return unpack_columns(memoryview(owner.map), owner=owner)


def load_trace_bin(path: "str | Path") -> list[TraceJob]:
    """Load a binary trace file as job objects (thin views)."""
    columns, _digest = load_columns(path)
    return columns.jobs()


def load_trace_auto(path: "str | Path") -> list[TraceJob]:
    """Load a trace from either format, sniffing the binary magic.

    The CLI's trace-consuming subcommands go through this, so every
    command that accepts a JSON trace transparently accepts a packed
    one too.
    """
    if is_binary_trace_file(path):
        return load_trace_bin(path)
    from .schema import load_trace

    return load_trace(path)
