"""Deadline assignment for synthetic and replayed workloads.

Paper Section V-B: "The job deadline (which is relative to the job
completion time) is set to be uniformly distributed in the following
interval ``[T_J, df * T_J]``, where ``T_J`` is the completion time of job
J given all the cluster resources (i.e., maximum amount of map/reduce
slots that job can utilize) and where ``df >= 1`` is a given deadline
factor."

``T_J`` is obtained exactly: the job is simulated alone on the full
cluster under FIFO (a microsecond-scale computation), and the result is
cached per ``(profile, cluster, slow-start)`` so sweeps over hundreds of
trace permutations don't recompute it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.cluster import ClusterConfig
from ..core.kernel import ColumnarEngine
from ..core.job import JobProfile, TraceJob

__all__ = ["solo_completion_time", "DeadlineFactorPolicy", "clear_solo_cache"]

_SOLO_CACHE: dict[tuple, float] = {}


def clear_solo_cache() -> None:
    """Drop all memoized solo completion times (mainly for tests)."""
    _SOLO_CACHE.clear()


def _profile_key(profile: JobProfile) -> tuple:
    # Content-based key: identical templates (e.g. one profile replayed
    # many times across trace permutations) share one cache entry, and
    # the durations digest is computed at most once per profile.  The
    # name is left out: it cannot change T_J.  ``id()`` would be unsafe —
    # ids are reused after garbage collection.
    return (profile.num_maps, profile.num_reduces, profile.durations_digest)


def solo_completion_time(
    profile: JobProfile,
    cluster: ClusterConfig,
    min_map_percent_completed: float = 0.05,
) -> float:
    """T_J: the job's completion time alone on the full cluster.

    Simulated exactly with the SimMR engine under FIFO.  Cached by
    profile *content* plus the cluster shape and reduce slow-start
    threshold.
    """
    key = (
        _profile_key(profile),
        cluster.map_slots,
        cluster.reduce_slots,
        min_map_percent_completed,
    )
    cached = _SOLO_CACHE.get(key)
    if cached is not None:
        return cached
    # Local import avoids a schedulers <-> trace import cycle at load time.
    from ..schedulers.fifo import FIFOScheduler

    engine = ColumnarEngine(
        cluster,
        FIFOScheduler(),
        min_map_percent_completed=min_map_percent_completed,
        record_tasks=False,
    )
    result = engine.run([TraceJob(profile, 0.0)])
    t_j = result.jobs[0].completion_time
    assert t_j is not None  # a lone job always completes
    _SOLO_CACHE[key] = t_j
    return t_j


class DeadlineFactorPolicy:
    """Assigns ``deadline = submit + U[T_J, df * T_J]`` per the paper.

    Parameters
    ----------
    deadline_factor:
        The paper's ``df >= 1``.  ``df = 1`` pins every deadline to the
        job's best-case completion time — under it MinEDF and MaxEDF
        coincide (Figure 7(a)).
    cluster:
        The cluster whose *full* capacity defines ``T_J``.
    min_map_percent_completed:
        Forwarded to the engine when computing ``T_J`` (should match the
        replay configuration).
    """

    def __init__(
        self,
        deadline_factor: float,
        cluster: ClusterConfig,
        min_map_percent_completed: float = 0.05,
    ) -> None:
        if deadline_factor < 1.0:
            raise ValueError(f"deadline factor must be >= 1, got {deadline_factor}")
        self.deadline_factor = float(deadline_factor)
        self.cluster = cluster
        self.min_map_percent_completed = min_map_percent_completed

    def deadline_for(
        self,
        profile: JobProfile,
        submit_time: float,
        rng: np.random.Generator,
    ) -> float:
        """Absolute deadline for a job submitted at ``submit_time``."""
        t_j = solo_completion_time(profile, self.cluster, self.min_map_percent_completed)
        rel = rng.uniform(t_j, self.deadline_factor * t_j)
        return submit_time + rel

    def assign(
        self,
        jobs: list[TraceJob],
        rng: np.random.Generator,
    ) -> list[TraceJob]:
        """A copy of ``jobs`` with deadlines assigned by this policy."""
        return [
            TraceJob(
                profile=j.profile,
                submit_time=j.submit_time,
                deadline=self.deadline_for(j.profile, j.submit_time, rng),
            )
            for j in jobs
        ]
