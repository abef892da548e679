"""In-service LRU of parsed traces: stat, don't re-parse.

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
    mtime_ns: int
    size: int
    trace: tuple[TraceJob, ...]
    digest: str


class TraceCache:
    """LRU of parsed traces keyed by ``(path, mtime, trace_digest)``.

    ``capacity`` bounds the number of distinct trace files held; 0
    disables caching entirely (every :meth:`load` parses).  Entries are
    validated against the file's current ``(st_mtime_ns, st_size)`` on
    every hit, so staleness is bounded by one ``stat`` call, not by a
    TTL.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 0:
            raise ValueError("trace cache capacity must be >= 0")
        self.capacity = capacity
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- the one entry point ------------------------------------------------

    def load(self, path: Path) -> tuple[tuple[TraceJob, ...], str]:
        """The parsed trace and its canonical digest for ``path``.

        Served from memory when the file is unchanged since it was
        parsed; otherwise (re-)loaded — binary traces via the zero-copy
        ``mmap`` path, JSON traces via the schema loader — and cached.
        Propagates ``OSError`` for unreadable files and ``ValueError``
        for undecodable ones; failures are never cached.
        """
        stat = path.stat()
        key = str(path)
        with self._lock:
            entry = self._entries.get(key)
            if (
                entry is not None
                and entry.mtime_ns == stat.st_mtime_ns
                and entry.size == stat.st_size
            ):
                self._entries.move_to_end(key)
                self._hits += 1
                return entry.trace, entry.digest
            self._misses += 1
        trace, digest = _parse_trace_file(path)
        if self.capacity > 0:
            with self._lock:
                self._entries[key] = _Entry(
                    mtime_ns=stat.st_mtime_ns,
                    size=stat.st_size,
                    trace=trace,
                    digest=digest,
                )
                self._entries.move_to_end(key)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self._evictions += 1
        return trace, digest

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
            return str(path) in self._entries


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
