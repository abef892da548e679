"""repro.parallel — parallel simulation campaigns with result reuse.

The simulator engine replays one trace in well under a second; the
expensive artifacts are *campaigns* — the what-if sweep
(:mod:`repro.sweep`), the scheduler zoo, the deadline-factor grids —
which are hundreds of mutually independent replays.  This package makes
campaigns scale with the hardware and with history:

* :mod:`repro.parallel.executor` — :func:`simulate_many` fans a batch
  of :class:`SimTask` descriptions out over a ``multiprocessing`` pool,
  with deterministic per-run seeding derived from each task's content
  and a BLAKE2b event-stream digest per run, so serial, parallel and
  cached executions are provably identical.
* :mod:`repro.parallel.cache` — :class:`ResultCache`, a sqlite-backed
  content-addressed store keyed on (trace digest, scheduler identity,
  engine config).  Deterministic replay means equal keys imply equal
  results: a warm cache turns a repeated sweep into pure lookups, and
  an interrupted sweep resumes from its completed cells.

``simmr sweep --workers N`` is the CLI face; ``docs/performance.md``
documents the knobs and the benchmark (``bench_parallel_sweep.py``).
"""

from .cache import CacheStats, ResultCache, cache_key, default_cache_path
from .executor import (
    FanoutStats,
    SchedulerSpec,
    SimOutcome,
    SimTask,
    last_fanout_stats,
    simulate_many,
)

__all__ = [
    "CacheStats",
    "FanoutStats",
    "ResultCache",
    "cache_key",
    "default_cache_path",
    "SchedulerSpec",
    "SimOutcome",
    "SimTask",
    "last_fanout_stats",
    "simulate_many",
]
