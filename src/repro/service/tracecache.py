"""In-service LRU of parsed traces: stat, don't re-parse; send once.

Every ``/simulate`` request naming a server-side ``trace_path`` used to
re-read and re-parse the trace file, even though a replay service sees
the same handful of traces over and over.  :class:`TraceCache` keeps the
most recently used parsed traces in memory, keyed by resolved path and
validated by the file's identity ``(mtime_ns, size)`` — so an entry is
served only while the bytes on disk are provably the ones that were
parsed, and editing or replacing a trace file invalidates its entry on
the very next request.  Each entry also pins the trace's canonical
content digest (:func:`~repro.sanitize.digest.trace_digest`), so a
cache hit skips digest recomputation too and the executor/result-cache
keys stay byte-identical to a cold load.

The same LRU holds the inline traces requests carried, keyed by the
digest the server computed after parsing them, so a client can name a
trace it sent before (``trace_digest``) instead of sending it again.
Both kinds of entry share one capacity bound.  A digest entry needs no
validation: the digest *is* the content, and only the server ever
writes one (:meth:`TraceCache.remember`).

Binary traces (:mod:`repro.trace.binfmt`) get a second win on the cold
path: loading one costs an ``mmap``, an O(jobs) header walk and one
digest pass — no JSON parse.  The loader checks the header's digest
against the decoded content, so a corrupted ``.simmr`` is rejected
(HTTP 400) instead of keying the result cache on a stale identity.

The cache is shared across the service's request threads; a plain lock
guards the LRU order book-keeping.  Loads happen outside the lock, so a
slow parse never blocks hits on other traces (two threads may race to
load the same cold trace; both produce identical entries, the second
insert wins harmlessly).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..core.job import TraceJob

#: An LRU key: ``("path", resolved path)`` or ``("digest", hex digest)``.
_Key = tuple[str, str]

__all__ = ["TraceCache", "TraceCacheStats"]


@dataclass(frozen=True)
class TraceCacheStats:
    """Counters of one :class:`TraceCache` (for ``/metrics``)."""

    hits: int
    misses: int
    evictions: int
    entries: int
    capacity: int


@dataclass(frozen=True)
class _Entry:
    trace: tuple[TraceJob, ...]
    digest: str
    #: ``(st_mtime_ns, st_size)`` of the file the trace was parsed from;
    #: None for a trace remembered by digest.
    stamp: Optional[tuple[int, int]] = None


class TraceCache:
    """LRU of parsed traces, by file path and by content digest.

    ``capacity`` bounds the number of entries of both kinds together; 0
    disables caching entirely (every :meth:`load` parses and every
    :meth:`lookup` misses).  File entries are validated against the
    file's current ``(st_mtime_ns, st_size)`` on every hit, so staleness
    is bounded by one ``stat`` call, not by a TTL.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 0:
            raise ValueError("trace cache capacity must be >= 0")
        self.capacity = capacity
        self._entries: "OrderedDict[_Key, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- entry points -------------------------------------------------------

    def load(self, path: Path) -> tuple[tuple[TraceJob, ...], str]:
        """The parsed trace and its canonical digest for ``path``.

        Served from memory when the file is unchanged since it was
        parsed; otherwise (re-)loaded — binary traces via the zero-copy
        ``mmap`` path, JSON traces via the schema loader — and cached.
        Propagates ``OSError`` for unreadable files and ``ValueError``
        for undecodable ones; failures are never cached.
        """
        stat = path.stat()
        key = ("path", str(path))
        stamp = (stat.st_mtime_ns, stat.st_size)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.stamp == stamp:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry.trace, entry.digest
            self._misses += 1
        trace, digest = _parse_trace_file(path)
        self._insert(key, _Entry(trace, digest, stamp))
        return trace, digest

    def lookup(self, digest: str) -> Optional[tuple[TraceJob, ...]]:
        """The trace remembered under ``digest``, or None (a miss)."""
        key = ("digest", digest)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry.trace

    def remember(self, trace: tuple[TraceJob, ...], digest: str) -> None:
        """Hold ``trace`` under ``digest``, which the caller computed from it."""
        self._insert(("digest", digest), _Entry(trace, digest))

    def _insert(self, key: _Key, entry: _Entry) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    # -- maintenance / introspection ---------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> TraceCacheStats:
        with self._lock:
            return TraceCacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                capacity=self.capacity,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, path: "str | Path") -> bool:
        with self._lock:
            return ("path", str(path)) in self._entries


def _parse_trace_file(path: Path) -> tuple[tuple[TraceJob, ...], str]:
    """Cold-load one trace file in whichever format it is on disk."""
    from ..trace.binfmt import is_binary_trace_file, load_columns

    if is_binary_trace_file(path):
        columns, digest = load_columns(path)
        return tuple(columns.jobs()), digest
    from ..sanitize.digest import trace_digest
    from ..trace.schema import load_trace

    trace = tuple(load_trace(path))
    return trace, trace_digest(trace)


def load_trace_cached(
    path: Path, cache: Optional[TraceCache]
) -> tuple[tuple[TraceJob, ...], str]:
    """Load through ``cache`` when one is configured, directly otherwise."""
    if cache is not None:
        return cache.load(path)
    return _parse_trace_file(path)


__all__ += ["load_trace_cached"]
