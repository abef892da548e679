"""A Hadoop Fair Scheduler (HFS) style policy.

The paper lists HFS (Zaharia et al.) among the broadly used production
schedulers SimMR can evaluate.  This implementation follows HFS's core
idea at the slot-allocation granularity SimMR models: every pool (and
every job within a pool) should, over time, receive an equal — or
weight-proportional — share of the cluster's slots.

When a slot frees, the policy grants it to the most *deficient* pool
(smallest ``running / weight``), and within the pool to the job with the
fewest running tasks of the requested kind (ties: submission order).
Data locality / delay scheduling is out of scope — SimMR does not model
task placement, only slot counts.

HFS also preempts: when a pool is starved below its fair share, the
scheduler kills tasks from pools running *over* their share so the
starved pool can reach it (victims rerun from scratch — Hadoop kill
semantics, the same mechanism the preemptive EDF variants use).
``FairScheduler(preemptive=True)`` enables a simplified instantaneous
version of that rule, consulted on every job arrival when the engine
runs with ``preemption=True``: real HFS waits out a configurable
timeout before killing, which a discrete-event replay collapses to
"immediately on arrival".

Fair also carries the :class:`~repro.schedulers.base.
ShareSchedulerMixin` contract (pools are its groups, the job key leads
with the job's running tasks), so the columnar kernel keeps per-pool
running sums as events change them and picks per dispatch by scanning
the pools, instead of rebuilding the pool table over the job queue.
Digest identity with the object path is asserted in
``tests/test_columnar_kernel.py``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence

from ..core.job import Job
from .base import Scheduler, ShareSchedulerMixin

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.cluster import ClusterConfig

__all__ = ["FairScheduler"]

PoolFn = Callable[[Job], str]


def _default_pool(job: Job) -> str:
    return job.profile.name


class FairScheduler(ShareSchedulerMixin, Scheduler):
    """Weighted max-min fair sharing of map and reduce slots.

    Parameters
    ----------
    pool_of:
        Maps a job to its pool name; defaults to the job's application
        name (each application is its own pool).
    weights:
        Pool name -> weight.  Pools absent from the mapping get weight 1.
    preemptive:
        Kill tasks from over-share pools when an arrival's pool cannot
        reach its fair share from free slots alone (requires the engine
        to run with ``preemption=True``; see the module docstring).
    """

    name = "Fair"
    share_rank_by_running = True

    def __init__(
        self,
        pool_of: Optional[PoolFn] = None,
        weights: Optional[Mapping[str, float]] = None,
        *,
        preemptive: bool = False,
    ) -> None:
        self.pool_of: PoolFn = pool_of or _default_pool
        self.weights: dict[str, float] = dict(weights or {})
        for pool, w in self.weights.items():
            if not (math.isfinite(w) and w > 0):
                raise ValueError(
                    f"pool {pool!r} weight must be finite and positive, got {w}"
                )
        self.preemptive = preemptive
        if preemptive:
            self.name = "Fair+P"

    def _weight(self, pool: str) -> float:
        return self.weights.get(pool, 1.0)

    def preemption_requests(
        self,
        job: Job,
        running_jobs: Sequence[Job],
        cluster: "ClusterConfig",
        free_map_slots: int,
        free_reduce_slots: int,
    ) -> list[tuple[Job, str, int]]:
        """Kills restoring the arriving job's pool to its fair share.

        The arrival's pool is entitled to ``floor(total * w / sum(w))``
        slots of each kind (weights summed over the pools currently
        present).  If pending work plus free slots cannot reach that
        entitlement, tasks are reclaimed from pools running *over* their
        own entitlement — greatest surplus first, never driving a victim
        pool below its share, jobs within a pool yielding most-running
        first (ties: latest submission).  Mirrors HFS's guarantee that
        preemption only ever moves pools *toward* their fair shares.
        """
        if not self.preemptive:
            return []
        active = [job, *running_jobs]
        pools = sorted({self.pool_of(j) for j in active})
        total_weight = sum(self._weight(p) for p in pools)
        my_pool = self.pool_of(job)
        requests: list[tuple[Job, str, int]] = []
        for kind, free, total in (
            ("map", free_map_slots, cluster.map_slots),
            ("reduce", free_reduce_slots, cluster.reduce_slots),
        ):
            pending = job.pending_maps if kind == "map" else job.pending_reduces
            running = (
                (lambda j: j.running_maps)
                if kind == "map"
                else (lambda j: j.running_reduces)
            )
            pool_running: dict[str, int] = {p: 0 for p in pools}
            for other in active:
                pool_running[self.pool_of(other)] += running(other)
            entitled = {
                p: int(total * self._weight(p) / total_weight) for p in pools
            }
            need = min(pending, entitled[my_pool] - pool_running[my_pool]) - free
            if need <= 0:
                continue
            surplus = {p: pool_running[p] - entitled[p] for p in pools}
            victims = sorted(
                (j for j in running_jobs if running(j) > 0),
                key=lambda j: (
                    -surplus[self.pool_of(j)],
                    -running(j),
                    -j.submit_time,
                    -j.job_id,
                ),
            )
            for victim in victims:
                if need <= 0:
                    break
                pool = self.pool_of(victim)
                take = min(running(victim), surplus[pool], need)
                if take > 0:
                    requests.append((victim, kind, take))
                    surplus[pool] -= take
                    need -= take
        return requests

    def _choose(self, job_queue: Sequence[Job], kind: str) -> Optional[Job]:
        if not job_queue:
            return None
        running = (lambda j: j.running_maps) if kind == "map" else (
            lambda j: j.running_reduces
        )
        # Pool deficiency: total running tasks of this kind per weight.
        pool_running: dict[str, int] = {}
        for job in job_queue:
            pool = self.pool_of(job)
            pool_running[pool] = pool_running.get(pool, 0) + running(job)

        def key(job: Job) -> tuple[float, int, float, int]:
            pool = self.pool_of(job)
            deficiency = pool_running[pool] / self._weight(pool)
            return (deficiency, running(job), job.submit_time, job.job_id)

        return min(job_queue, key=key)

    def choose_next_map_task(self, job_queue: Sequence[Job]) -> Optional[Job]:
        return self._choose(job_queue, "map")

    def choose_next_reduce_task(self, job_queue: Sequence[Job]) -> Optional[Job]:
        return self._choose(job_queue, "reduce")

    # -- share contract (the kernel's per-pool decision state) -----------

    def share_group(self, job: Job) -> str:
        return self.pool_of(job)

    def share_weight(self, group: str) -> float:
        return self._weight(group)
